package core

import (
	"math"
	"testing"

	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/platform"
	"repro/internal/workload"
)

func testBench(t *testing.T) (*Bench, *platform.Platform) {
	t.Helper()
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Samples = 5 // keep tests fast; the paper's 30 is for the benches
	return b, p
}

func dom(t *testing.T, p *platform.Platform, name string) *platform.Domain {
	t.Helper()
	d, err := p.Domain(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildLoad(t *testing.T, d *platform.Domain, name string, cores int) platform.Load {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	return platform.Load{Seq: seq, ActiveCores: cores}
}

func TestNewBenchValidation(t *testing.T) {
	if _, err := NewBench(nil, 1); err == nil {
		t.Fatal("nil platform accepted")
	}
	b, _ := testBench(t)
	if err := b.Validate(); err != nil {
		t.Fatalf("default bench invalid: %v", err)
	}
	cases := []func(*Bench){
		func(b *Bench) { b.Platform = nil },
		func(b *Bench) { b.Analyzer = nil },
		func(b *Bench) { b.Band = Band{Lo: 0, Hi: 1} },
		func(b *Bench) { b.Band = Band{Lo: 2, Hi: 1} },
		func(b *Bench) { b.Samples = 0 },
		func(b *Bench) { b.Dt = 0 },
		func(b *Bench) { b.N = 4 },
	}
	for i, mut := range cases {
		bb, _ := testBench(t)
		mut(bb)
		if err := bb.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEMMeasureOrdersWorkloadsByNoise(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	idle, err := b.EMMeasureN(d, buildLoad(t, d, "idle", 2), b.Samples)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := b.EMMeasureN(d, buildLoad(t, d, "probe", 2), b.Samples)
	if err != nil {
		t.Fatal(err)
	}
	// The two-phase probe loop radiates far more in-band than idle.
	if probe.PeakDBm < idle.PeakDBm+10 {
		t.Fatalf("probe %v dBm not clearly above idle %v dBm", probe.PeakDBm, idle.PeakDBm)
	}
}

func TestFastResonanceSweepA72(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	res, err := b.FastResonanceSweep(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 11: amplitude maximized around 70 MHz with both cores.
	if res.ResonanceHz < 63e6 || res.ResonanceHz > 75e6 {
		t.Fatalf("resonance estimate %.2f MHz, want ~66-72", res.ResonanceHz/1e6)
	}
	if len(res.Points) < 10 {
		t.Fatalf("only %d sweep points", len(res.Points))
	}
}

func TestFastSweepPeakIsArgmax(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	res, err := b.FastResonanceSweep(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// PeakLoopHz/PeakDBm must be exactly the argmax over the recorded
	// points (the loop frequency used to be dropped from the result).
	bestDBm := math.Inf(-1)
	bestHz := 0.0
	for _, pt := range res.Points {
		if pt.PeakDBm > bestDBm {
			bestDBm, bestHz = pt.PeakDBm, pt.LoopHz
		}
	}
	if res.PeakDBm != bestDBm || res.PeakLoopHz != bestHz {
		t.Fatalf("peak (%v Hz, %v dBm) != argmax of points (%v Hz, %v dBm)",
			res.PeakLoopHz, res.PeakDBm, bestHz, bestDBm)
	}
	if res.PeakLoopHz < b.Band.Lo || res.PeakLoopHz > b.Band.Hi {
		t.Fatalf("peak loop frequency %v outside the search band", res.PeakLoopHz)
	}
}

func TestFastResonanceSweepSingleCoreShiftsUp(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	both, err := b.FastResonanceSweep(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := d.Gated(1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := b.FastResonanceSweep(gated, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 11: ~70 MHz (C0C1) vs ~85 MHz (C0).
	if one.ResonanceHz <= both.ResonanceHz+5e6 {
		t.Fatalf("power-gating shift missing: %v vs %v", one.ResonanceHz, both.ResonanceHz)
	}
	if one.ResonanceHz < 78e6 || one.ResonanceHz > 92e6 {
		t.Fatalf("single-core resonance %.2f MHz, want ~85", one.ResonanceHz/1e6)
	}
}

func TestGenerateVirusConvergesToResonance(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	cfg := ga.DefaultConfig(d.Spec.Pool())
	cfg.PopulationSize = 20
	cfg.Generations = 15
	res, err := b.GenerateVirus(d, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0].BestFitness
	last := res.History[len(res.History)-1].BestFitness
	if last <= first {
		t.Fatalf("GA did not improve EM amplitude: %v -> %v dBm", first, last)
	}
	// Dominant frequency near the (flat-topped) resonance region.
	if res.Best.DominantHz < 55e6 || res.Best.DominantHz > 90e6 {
		t.Fatalf("virus dominant frequency %.2f MHz, want near 67", res.Best.DominantHz/1e6)
	}
}

func TestDroopAndPtpMeasurers(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	dso := instrument.NewOCDSO(3)
	probe := buildLoad(t, d, "probe", 2)
	idle := buildLoad(t, d, "idle", 2)

	droop := b.DroopMeasurer(d, 2, dso)
	fProbe, domHz, err := droop.Measure(probe.Seq)
	if err != nil {
		t.Fatal(err)
	}
	fIdle, _, err := droop.Measure(idle.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if fProbe <= fIdle {
		t.Fatalf("droop fitness ordering broken: probe %v <= idle %v", fProbe, fIdle)
	}
	if domHz <= 0 {
		t.Fatal("no dominant frequency from DSO spectrum")
	}

	ptp := b.PtpMeasurer(d, 2, dso)
	pProbe, _, err := ptp.Measure(probe.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if pProbe < fProbe {
		t.Fatalf("peak-to-peak %v below droop %v", pProbe, fProbe)
	}
}

func TestVoltageMeasurerRequiresVisibility(t *testing.T) {
	b, p := testBench(t)
	a53 := dom(t, p, platform.DomainA53)
	m := b.DroopMeasurer(a53, 4, instrument.NewOCDSO(1))
	if _, _, err := m.Measure(buildLoad(t, a53, "probe", 4).Seq); err == nil {
		t.Fatal("droop measurement on a no-visibility domain succeeded")
	}
}

func TestMonitorAllShowsBothDomains(t *testing.T) {
	b, p := testBench(t)
	a72 := dom(t, p, platform.DomainA72)
	a53 := dom(t, p, platform.DomainA53)
	loads := map[string]platform.Load{
		platform.DomainA72: buildLoad(t, a72, "probe", 2),
		platform.DomainA53: buildLoad(t, a53, "probe", 4),
	}
	sweep, err := b.MonitorAll(loads)
	if err != nil {
		t.Fatal(err)
	}
	// Both domains run their probe loops at different clocks, so their
	// loop fundamentals appear as separate in-band spikes. Find the two
	// strongest distinct peaks above the noise floor.
	_, topDbm, _ := sweep.PeakInBand(math.Inf(-1), math.Inf(1))
	if topDbm < -60 {
		t.Fatalf("no emission visible: top peak %v dBm", topDbm)
	}
	if _, err := b.MonitorAll(nil); err == nil {
		t.Fatal("empty load map accepted")
	}
	if _, err := b.MonitorAll(map[string]platform.Load{"nope": {}}); err == nil {
		t.Fatal("unknown domain accepted")
	}
}

func TestDefaultBand(t *testing.T) {
	band := DefaultBand()
	if band.Lo != 50e6 || band.Hi != 200e6 {
		t.Fatalf("default band %+v", band)
	}
}

func TestSweepResolutionSanity(t *testing.T) {
	b, _ := testBench(t)
	binW := 1 / (float64(b.N) * b.Dt)
	if binW > 1e6 {
		t.Fatalf("analysis bin width %v Hz too coarse to resolve MHz features", binW)
	}
	if math.Abs(binW-488281.25) > 1 {
		t.Fatalf("unexpected bin width %v", binW)
	}
}
