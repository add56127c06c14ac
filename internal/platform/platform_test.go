package platform

import (
	"math"
	"repro/internal/dsp"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/workload"
)

func juno(t *testing.T) *Platform {
	t.Helper()
	p, err := JunoR2()
	if err != nil {
		t.Fatalf("JunoR2: %v", err)
	}
	return p
}

func amd(t *testing.T) *Platform {
	t.Helper()
	p, err := AMDDesktop()
	if err != nil {
		t.Fatalf("AMDDesktop: %v", err)
	}
	return p
}

func domain(t *testing.T, p *Platform, name string) *Domain {
	t.Helper()
	d, err := p.Domain(name)
	if err != nil {
		t.Fatalf("Domain(%s): %v", name, err)
	}
	return d
}

// probeLoop is the Section 5.3 two-phase loop: a burst of adds then a
// divide.
func probeLoop(t testing.TB, pool *isa.Pool) []isa.Inst {
	t.Helper()
	add, ok := pool.DefByMnemonic("add")
	if !ok {
		t.Fatal("pool has no add")
	}
	divM := "sdiv"
	if pool.Arch == isa.X86 {
		divM = "idiv"
	}
	div, ok := pool.DefByMnemonic(divM)
	if !ok {
		t.Fatalf("pool has no %s", divM)
	}
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, isa.Inst{Def: add, Dest: i + 1})
	}
	seq = append(seq, isa.Inst{Def: div, Dest: 13, Srcs: [2]int{13, 13}})
	return seq
}

func TestBuiltinPlatforms(t *testing.T) {
	j := juno(t)
	if len(j.Domains()) != 2 {
		t.Fatalf("juno has %d domains", len(j.Domains()))
	}
	a72 := domain(t, j, DomainA72)
	if a72.Spec.TotalCores != 2 || a72.Spec.VoltageVisibility != "oc-dso" {
		t.Errorf("a72 spec wrong: %+v", a72.Spec)
	}
	a53 := domain(t, j, DomainA53)
	if a53.Spec.TotalCores != 4 || a53.Spec.VoltageVisibility != "none" {
		t.Errorf("a53 spec wrong: %+v", a53.Spec)
	}
	a := amd(t)
	ath := domain(t, a, DomainAthlon)
	if ath.Spec.TotalCores != 4 || ath.Spec.ISA != isa.X86 {
		t.Errorf("athlon spec wrong: %+v", ath.Spec)
	}
	if _, err := j.Domain("nope"); err == nil {
		t.Error("unknown domain lookup succeeded")
	}
}

func TestCalibratedResonances(t *testing.T) {
	cases := []struct {
		plat, dom     string
		cores         int
		target, tolMH float64
	}{
		{"juno", DomainA72, 2, 67e6, 2e6},
		{"juno", DomainA72, 1, 85e6, 3e6},
		{"juno", DomainA53, 4, 76.5e6, 2e6},
		{"juno", DomainA53, 1, 96e6, 3e6},
		{"amd", DomainAthlon, 4, 78e6, 2e6},
	}
	plats := map[string]*Platform{"juno": juno(t), "amd": amd(t)}
	for _, tc := range cases {
		d := domain(t, plats[tc.plat], tc.dom)
		if err := d.SetPoweredCores(tc.cores); err != nil {
			t.Fatalf("SetPoweredCores: %v", err)
		}
		m, err := d.Model()
		if err != nil {
			t.Fatalf("Model: %v", err)
		}
		f, _, err := m.ResonancePeak(20e6, 300e6)
		if err != nil {
			t.Fatalf("ResonancePeak: %v", err)
		}
		if math.Abs(f-tc.target) > tc.tolMH {
			t.Errorf("%s/%d cores: peak %.2f MHz, want %.1f±%.1f MHz",
				tc.dom, tc.cores, f/1e6, tc.target/1e6, tc.tolMH/1e6)
		}
		d.Reset()
	}
}

func TestDomainStateControls(t *testing.T) {
	d := domain(t, juno(t), DomainA53)
	if err := d.SetPoweredCores(0); err == nil {
		t.Error("0 powered cores accepted")
	}
	if err := d.SetPoweredCores(5); err == nil {
		t.Error("5 powered cores accepted")
	}
	if err := d.SetPoweredCores(2); err != nil {
		t.Errorf("SetPoweredCores(2): %v", err)
	}
	if d.PoweredCores() != 2 {
		t.Errorf("PoweredCores = %d", d.PoweredCores())
	}
	if _, err := d.SnapClock(0); err == nil {
		t.Error("clock 0 accepted")
	}
	if _, err := d.SnapClock(2e9); err == nil {
		t.Error("clock above max accepted")
	}
	// Snapped to the 25 MHz grid.
	if got, err := d.SnapClock(510e6); err != nil || math.Abs(got-500e6) > 1 {
		t.Errorf("SnapClock(510 MHz) = %v, %v, want 500 MHz", got, err)
	}
	d.Reset()
	if d.PoweredCores() != 4 {
		t.Error("Reset did not power every core")
	}
}

// TestSetpointsRejectNonFinite: NaN compares false against both range
// bounds, so the clock check must be written to reject it; neither it nor
// ±Inf may snap to a clock.
func TestSetpointsRejectNonFinite(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := d.SnapClock(v); err == nil {
			t.Errorf("SnapClock(%v) accepted", v)
		}
	}
}

func TestClockSteps(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	steps := d.ClockSteps()
	if len(steps) != 60 { // 20 MHz .. 1.2 GHz in 20 MHz steps
		t.Fatalf("got %d clock steps", len(steps))
	}
	if math.Abs(steps[len(steps)-1]-1.2e9) > 1 {
		t.Fatalf("top step %v", steps[len(steps)-1])
	}
}

func TestLoadValidation(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	seq := probeLoop(t, d.Spec.Pool())
	if _, _, err := current(d, Load{Seq: nil, ActiveCores: 1}, 1e-9, 64); err == nil {
		t.Error("empty workload accepted")
	}
	if _, _, err := current(d, Load{Seq: seq, ActiveCores: 3}, 1e-9, 64); err == nil {
		t.Error("more active than powered cores accepted")
	}
}

func TestCurrentIncludesIdleCoresAndSupplyScaling(t *testing.T) {
	d := domain(t, juno(t), DomainA53)
	seq := probeLoop(t, d.Spec.Pool())
	one, _, err := current(d, Load{Seq: seq, ActiveCores: 1}, 1e-9, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Same single active core with fewer powered cores: less idle current.
	if err := d.SetPoweredCores(1); err != nil {
		t.Fatal(err)
	}
	alone, _, err := current(d, Load{Seq: seq, ActiveCores: 1}, 1e-9, 512)
	if err != nil {
		t.Fatal(err)
	}
	idle := power.IdleCurrent(d.Spec.Core, d.ClockHz()) * 3
	diff := dsp.Mean(one) - dsp.Mean(alone)
	if math.Abs(diff-idle) > 0.02*idle {
		t.Errorf("idle-core current %v, want %v", diff, idle)
	}
	// Supply scaling: 10%% lower supply, 10%% lower current.
	d.Reset()
	scaled := make([]float64, 512)
	if _, err := d.currentAt(Load{Seq: seq, ActiveCores: 1}, 1e-9, 512, d.ClockHz(), 0.9, d.PoweredCores(), scaled); err != nil {
		t.Fatal(err)
	}
	ratio := dsp.Mean(scaled) / dsp.Mean(one)
	if math.Abs(ratio-0.9) > 0.01 {
		t.Errorf("supply scaling ratio %v, want 0.9", ratio)
	}
}

func TestSteadyResponseDroops(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	seq := probeLoop(t, d.Spec.Pool())
	resp, res, err := d.SteadyVDie(Load{Seq: seq, ActiveCores: 2}, 0.25e-9, 4096, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("IPC missing")
	}
	droop := resp.MaxDroop(d.SupplyVolts())
	if droop <= 0 || droop > 0.5 {
		t.Errorf("droop %v out of plausible range", droop)
	}
}

func TestSpectraDominantInBand(t *testing.T) {
	// The probe loop at full clock puts energy into 50-200 MHz; the
	// spectra must show it.
	d := domain(t, juno(t), DomainA72)
	seq := probeLoop(t, d.Spec.Pool())
	freqs, vAmp, iAmp, _, err := d.SpectraArena(Load{Seq: seq, ActiveCores: 2}, 0.25e-9, 8192, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	var inBand float64
	for i, f := range freqs {
		if f >= 20e6 && f <= 300e6 && vAmp[i] > inBand {
			inBand = vAmp[i]
		}
	}
	if inBand < 1e-4 {
		t.Errorf("no in-band voltage spectral content: max %v", inBand)
	}
	if len(iAmp) != len(vAmp) {
		t.Error("spectra length mismatch")
	}
}

func TestTransientMatchesSteadyStatePeakToPeak(t *testing.T) {
	// lbm puts strong spectral content inside the resonance band, where
	// the fast frequency-domain path must agree with the reference
	// transient solver.
	d := domain(t, juno(t), DomainA72)
	w, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	l := Load{Seq: seq, ActiveCores: 2}
	const (
		dt = 0.25e-9
		n  = 8192
	)
	ss, _, err := d.SteadyVDie(l, dt, n, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := d.TransientResponse(l, dt, n)
	if err != nil {
		t.Fatal(err)
	}
	// Compare steady-state swing over the tail of the transient.
	tail := tr.VDie[n/2:]
	min, max := tail[0], tail[0]
	for _, v := range tail {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	trPtp := max - min
	ssPtp := ss.PeakToPeak()
	if math.Abs(trPtp-ssPtp) > 0.1*ssPtp {
		t.Errorf("transient p2p %v vs steady-state p2p %v", trPtp, ssPtp)
	}
}

func TestTransferCaching(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	ts1, err := d.transferSet(256, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := d.transferSet(256, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ts1 != ts2 {
		t.Error("transfer set not cached")
	}
	if err := d.SetPoweredCores(1); err != nil {
		t.Fatal(err)
	}
	ts3, err := d.transferSet(256, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ts3 == ts1 {
		t.Error("cache ignored powered-core change")
	}
	d.Reset()
}

func TestVminStepVolts(t *testing.T) {
	if got := domain(t, juno(t), DomainA72).Spec.VminStepVolts(); got != 0.010 {
		t.Errorf("ARM step %v", got)
	}
	if got := domain(t, amd(t), DomainAthlon).Spec.VminStepVolts(); got != 0.0125 {
		t.Errorf("AMD step %v", got)
	}
}

func TestNewPlatformErrors(t *testing.T) {
	if _, err := NewPlatform("x", juno(t).Antenna); err == nil {
		t.Error("no-domain platform accepted")
	}
	spec := Spec{Name: "dup"}
	if _, err := NewPlatform("x", juno(t).Antenna, spec); err == nil {
		t.Error("invalid spec accepted")
	}
	j := juno(t)
	a72 := domain(t, j, DomainA72).Spec
	if _, err := NewPlatform("x", j.Antenna, a72, a72); err == nil {
		t.Error("duplicate domain accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := domain(t, juno(t), DomainA72).Spec
	var buf strings.Builder
	if err := SaveSpecJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := loadSpecV1([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.ISA != orig.ISA || back.TotalCores != orig.TotalCores {
		t.Fatalf("identity lost: %+v", back)
	}
	if back.PDN != orig.PDN {
		t.Fatalf("PDN lost:\n%+v\n%+v", back.PDN, orig.PDN)
	}
	if back.Core != orig.Core {
		t.Fatalf("core lost:\n%+v\n%+v", back.Core, orig.Core)
	}
	if back.EMPath != orig.EMPath || back.Failure != orig.Failure {
		t.Fatal("EM path or failure params lost")
	}
	// The loaded spec builds a working platform.
	if _, err := NewPlatform("loaded", juno(t).Antenna, back); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSpecJSONErrors(t *testing.T) {
	cases := []string{
		"{bad json",
		`{"isa": "mips"}`,
		`{"isa": "arm64", "core": {"units": {"warp": 1}}}`,
		`{"isa": "arm64", "name": "x"}`, // missing everything else: invalid domain
	}
	for i, text := range cases {
		if _, err := loadSpecV1([]byte(text)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
