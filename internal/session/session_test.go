package session

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/platform"
	"repro/internal/vmin"
	"repro/internal/workload"
)

func buildReport(t *testing.T) (*Report, *platform.Domain) {
	t.Helper()
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Samples = 3
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewLocal(p, d, time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC))

	sweep, err := b.FastResonanceSweep(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetSweep(sweep)

	cfg := ga.DefaultConfig(d.Spec.Pool())
	cfg.PopulationSize, cfg.Generations = 10, 4
	res, err := b.GenerateVirus(d, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetVirus(d.Spec.Pool(), res)

	w, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	tester := vmin.NewTester(d, 2)
	vres, err := tester.Search(platform.Load{Seq: seq, ActiveCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep.AddVmin("lbm", vres)
	return rep, d
}

func TestReportRoundTrip(t *testing.T) {
	rep, d := buildReport(t)
	var buf bytes.Buffer
	if err := rep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform != rep.Platform || back.Domain != rep.Domain {
		t.Fatalf("identity lost: %+v", back)
	}
	if back.Resonance == nil || back.Resonance.ResonanceHz != rep.Resonance.ResonanceHz {
		t.Fatal("resonance record lost")
	}
	if len(back.Resonance.Points) != len(rep.Resonance.Points) {
		t.Fatal("sweep points lost")
	}
	if back.Virus == nil || back.Virus.DominantHz != rep.Virus.DominantHz {
		t.Fatal("virus record lost")
	}
	if len(back.Vmin) != 1 || back.Vmin[0].Workload != "lbm" {
		t.Fatalf("vmin rows %+v", back.Vmin)
	}
	// The stored virus is re-runnable.
	seq, err := back.VirusProgram(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("virus program empty after round trip")
	}
	if back.CreatedAt != "2026-07-04T12:00:00Z" {
		t.Fatalf("timestamp %q", back.CreatedAt)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 999, "platform": "x", "domain": "y"}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("report without identity accepted")
	}
}

// TestLoadAcceptsOperatingPointFields: reports written while the schema
// still recorded the clock and supply load, with the rest intact.
func TestLoadAcceptsOperatingPointFields(t *testing.T) {
	r, err := Load(strings.NewReader(`{"version": 1, "platform": "juno-r2", "domain": "cortex-a72",
		"clock_hz": 1.2e9, "supply_v": 0.9, "powered_cores": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.Platform != "juno-r2" || r.Domain != "cortex-a72" || r.PoweredCores != 2 {
		t.Fatalf("loaded %+v", r)
	}
}

func TestVirusProgramMissing(t *testing.T) {
	r := &Report{Version: Version}
	if _, err := r.VirusProgram(nil); err == nil {
		t.Error("missing virus accepted")
	}
}

func TestVirusMixRecorded(t *testing.T) {
	rep, _ := buildReport(t)
	if len(rep.Virus.Mix) == 0 {
		t.Fatal("no instruction mix recorded")
	}
	var total float64
	for _, f := range rep.Virus.Mix {
		total += f
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("mix fractions sum to %v", total)
	}
}
