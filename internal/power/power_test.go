package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/uarch"
)

func testSeq(t *testing.T) []isa.Inst {
	t.Helper()
	p := isa.ARM64Pool()
	add, _ := p.DefByMnemonic("add")
	div, _ := p.DefByMnemonic("sdiv")
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, isa.Inst{Def: add, Dest: i + 1})
	}
	seq = append(seq, isa.Inst{Def: div, Dest: 15, Srcs: [2]int{15, 15}})
	return seq
}

func TestValidate(t *testing.T) {
	good := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 1e9, ActiveCores: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good load rejected: %v", err)
	}
	cases := []func(*ClusterLoad){
		func(c *ClusterLoad) { c.Seq = nil },
		func(c *ClusterLoad) { c.ClockHz = 0 },
		func(c *ClusterLoad) { c.ClockHz = math.NaN() },
		func(c *ClusterLoad) { c.ActiveCores = 0 },
		func(c *ClusterLoad) { c.PhaseCycles = []float64{1} }, // 1 offset, 2 cores
		func(c *ClusterLoad) { c.PhaseCycles = []float64{0, math.NaN()} },
		func(c *ClusterLoad) { c.PhaseCycles = []float64{-1, 0} },
		func(c *ClusterLoad) { c.PhaseCycles = []float64{math.Inf(1), 0} },
		func(c *ClusterLoad) { c.PhaseCycles = []float64{0, maxPhaseCycles + 1} },
		func(c *ClusterLoad) { c.Core.IssueWidth = 0 },
	}
	for i, mut := range cases {
		cl := good
		mut(&cl)
		if err := cl.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// current runs CurrentInto on a freshly allocated waveform row.
func current(cl ClusterLoad, dt float64, n int) ([]float64, *uarch.Result, error) {
	w := make([]float64, n)
	res, err := cl.CurrentInto(w, dt, n)
	return w, res, err
}

func TestCurrentBadSampling(t *testing.T) {
	cl := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 1e9, ActiveCores: 1}
	if _, _, err := current(cl, 0, 10); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, _, err := current(cl, 1e-9, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestCurrentScalesWithCores(t *testing.T) {
	mk := func(cores int) []float64 {
		cl := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 950e6, ActiveCores: cores}
		w, _, err := current(cl, 0.5e-9, 2048)
		if err != nil {
			t.Fatalf("CurrentInto(%d cores): %v", cores, err)
		}
		return w
	}
	one := MeanCurrent(mk(1))
	four := MeanCurrent(mk(4))
	if math.Abs(four-4*one) > 0.01*four {
		t.Fatalf("4-core mean %v, want 4x single %v", four, 4*one)
	}
}

func TestCurrentScalesWithClock(t *testing.T) {
	mean := func(clock float64) float64 {
		cl := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: clock, ActiveCores: 1}
		w, _, err := current(cl, 0.5e-9, 2048)
		if err != nil {
			t.Fatal(err)
		}
		return MeanCurrent(w)
	}
	hi := mean(1.2e9)
	lo := mean(0.6e9)
	// Mean current should halve with clock (same charge per cycle, cycles
	// take twice as long).
	if math.Abs(hi-2*lo) > 0.05*hi {
		t.Fatalf("current does not scale with clock: %v vs 2x %v", hi, lo)
	}
}

func TestPhaseOffsetsShiftWaveform(t *testing.T) {
	base := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 1e9, ActiveCores: 1}
	w0, res, err := current(base, 1e-9, 1024)
	if err != nil {
		t.Fatal(err)
	}
	period := res.LoopCycles
	shifted := base
	shifted.PhaseCycles = []float64{period} // one full loop: same waveform
	w1, _, err := current(shifted, 1e-9, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w0 {
		if math.Abs(w0[i]-w1[i]) > 1e-9 {
			t.Fatalf("full-period phase shift changed waveform at %d: %v vs %v", i, w0[i], w1[i])
		}
	}
	// A half-period shift must differ somewhere (the loop has phases).
	half := base
	half.PhaseCycles = []float64{period / 2}
	w2, _, err := current(half, 1e-9, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var differs bool
	for i := range w0 {
		if math.Abs(w0[i]-w2[i]) > 1e-6 {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("half-period phase shift produced identical waveform")
	}
}

func TestIdleCurrent(t *testing.T) {
	cfg := uarch.CortexA53()
	got := IdleCurrent(cfg, 1e9)
	want := (cfg.BaseCharge + float64(cfg.IssueWidth)*cfg.IdleSlotCharge) * 1e9
	if got != want {
		t.Fatalf("IdleCurrent = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatal("idle current not positive")
	}
}

func TestMeanCurrentEmpty(t *testing.T) {
	if MeanCurrent(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestLoopFrequency(t *testing.T) {
	res := &uarch.Result{LoopCycles: 20}
	if f := LoopFrequency(res, 1e9); f != 50e6 {
		t.Fatalf("LoopFrequency = %v, want 50 MHz", f)
	}
	if f := LoopFrequency(&uarch.Result{}, 1e9); f != 0 {
		t.Fatalf("zero-period LoopFrequency = %v", f)
	}
}

// Property: the waveform is strictly positive and bounded by a generous
// per-core ceiling, for random loops on random clocks.
func TestCurrentBoundsProperty(t *testing.T) {
	p := isa.ARM64Pool()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := p.RandomSequence(rng, 10+rng.Intn(40))
		clock := 0.2e9 + 1.0e9*rng.Float64()
		cores := 1 + rng.Intn(4)
		cl := ClusterLoad{Core: uarch.CortexA53(), Seq: seq, ClockHz: clock, ActiveCores: cores}
		w, _, err := current(cl, 0.5e-9, 512)
		if err != nil {
			return false
		}
		// Ceiling: width * max charge * scale * clock per core, plus base.
		ceiling := float64(cores) * clock * 20e-9
		for _, v := range w {
			if v <= 0 || v > ceiling {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// refSteadySim is the two-stage window sizing as two fresh simulations,
// kept as an independent reference for steadySim's trace-served path: a
// run at the minimal window reads the loop period, and a second run at the
// snapped window replaces it when that window is longer (widened reports
// which happened).
func refSteadySim(t *testing.T, cl ClusterLoad, dt float64, n int) (sim SteadySim, widened bool) {
	t.Helper()
	maxPhase := cl.maxPhase()
	window := float64(n) * dt * cl.ClockHz
	minSteady := int(math.Ceil(window+maxPhase)) + 8
	res, err := uarch.Run(cl.Core, cl.Seq, minSteady)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1.0
	if res.LoopCycles > 0 {
		if k := math.Round(window / res.LoopCycles); k >= 1 {
			if s := k * res.LoopCycles / window; math.Abs(s-1) <= 0.05 {
				scale = s
			}
		}
	}
	if needed := int(math.Ceil(window*scale+maxPhase)) + 2; needed > minSteady {
		if res, err = uarch.Run(cl.Core, cl.Seq, needed); err != nil {
			t.Fatal(err)
		}
		widened = true
	}
	return SteadySim{Res: res, Dt: dt, N: n, scale: scale}, widened
}

// requireSameWave compares two waveforms bit for bit.
func requireSameWave(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: wave[%d] = %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestSteadySimTraceMatchesCurrent pins the one sizing path against the
// two-fresh-run reference, bit for bit: CurrentInto, SteadySimTrace from a
// trace primed at the campaign's largest clock, and SteadySimTrace with a
// nil trace (call-local priming) must each reproduce the reference's loop
// frequency, charge trace and resampled waveform at every clock —
// including clocks whose snapped window exceeds the minimal one, and a
// phase-staggered load, whose offsets widen every window.
func TestSteadySimTraceMatchesCurrent(t *testing.T) {
	// Four chained divides make a 24-cycle loop: long enough for the snap
	// to widen some windows past the minimal one by more than its 6-cycle
	// margin (testSeq's 6-cycle loop never does).
	seq := testSeq(t)
	for i := 0; i < 3; i++ {
		seq = append(seq, seq[len(seq)-1])
	}
	cfg := uarch.CortexA72()
	dt, n := 0.5e-9, 2048
	clocks := []float64{1.2e9, 0.9e9, 0.6e9, 0.12e9}

	for _, phases := range [][]float64{nil, {0, 37.5}} {
		load := func(clock float64) ClusterLoad {
			return ClusterLoad{Core: cfg, Seq: seq, ClockHz: clock, ActiveCores: 2, PhaseCycles: phases}
		}
		tr, err := uarch.PrimeTrace(cfg, seq, load(clocks[0]).PrimeSteadyCycles(dt, n))
		if err != nil {
			t.Fatal(err)
		}
		widenedAny, keptAny := false, false
		for _, clock := range clocks {
			cl := load(clock)
			label := fmt.Sprintf("phases %v clock %v", phases, clock)
			ref, widened := refSteadySim(t, cl, dt, n)
			widenedAny = widenedAny || widened
			keptAny = keptAny || !widened
			want := make([]float64, n)
			cl.fillFromSim(ref, want)
			wantHz := LoopFrequency(ref.Res, clock)

			cur, curRes, err := current(cl, dt, n)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(curRes.Charge) != len(ref.Res.Charge) ||
				math.Float64bits(LoopFrequency(curRes, clock)) != math.Float64bits(wantHz) {
				t.Fatalf("%s: CurrentInto's simulation diverges from the reference", label)
			}
			requireSameWave(t, label+" CurrentInto", cur, want)

			for _, src := range []struct {
				name string
				tr   *uarch.Trace
			}{{"primed", tr}, {"nil", nil}} {
				sim, err := cl.SteadySimTrace(dt, n, src.tr)
				if err != nil {
					t.Fatalf("%s %s trace: %v", label, src.name, err)
				}
				if len(sim.Res.Charge) != len(ref.Res.Charge) ||
					math.Float64bits(LoopFrequency(sim.Res, clock)) != math.Float64bits(wantHz) {
					t.Fatalf("%s %s trace: simulation diverges from the reference", label, src.name)
				}
				got := make([]float64, n)
				if err := cl.FillFromSim(sim, got); err != nil {
					t.Fatal(err)
				}
				requireSameWave(t, label+" "+src.name+" trace", got, want)
			}
		}
		if !widenedAny || !keptAny {
			t.Fatalf("phases %v: clocks exercise only one sizing stage (widened %v, kept %v)", phases, widenedAny, keptAny)
		}
	}
}

// TestFillFromSimValidation: an empty sim and a mis-sized row are rejected.
func TestFillFromSimValidation(t *testing.T) {
	seq := testSeq(t)
	cl := ClusterLoad{Core: uarch.CortexA72(), Seq: seq, ClockHz: 1e9, ActiveCores: 1}
	if err := cl.FillFromSim(SteadySim{}, make([]float64, 4)); err == nil {
		t.Fatal("empty sim accepted")
	}
	sim, err := cl.SteadySimTrace(1e-9, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.FillFromSim(sim, make([]float64, 255)); err == nil {
		t.Fatal("short destination accepted")
	}
}
