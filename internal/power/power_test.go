package power

import (
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

func TestCurrentBadSampling(t *testing.T) {
	cl := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 1e9, ActiveCores: 1}
	if _, _, err := cl.Current(0, 10); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, _, err := cl.Current(1e-9, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestCurrentScalesWithCores(t *testing.T) {
	mk := func(cores int) []float64 {
		cl := ClusterLoad{Core: uarch.CortexA53(), Seq: testSeq(t), ClockHz: 950e6, ActiveCores: cores}
		w, _, err := cl.Current(0.5e-9, 2048)
		if err != nil {
			t.Fatalf("Current(%d cores): %v", cores, err)
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
		w, _, err := cl.Current(0.5e-9, 2048)
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
	w0, res, err := base.Current(1e-9, 1024)
	if err != nil {
		t.Fatal(err)
	}
	period := res.LoopCycles
	shifted := base
	shifted.PhaseCycles = []float64{period} // one full loop: same waveform
	w1, _, err := shifted.Current(1e-9, 1024)
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
	w2, _, err := half.Current(1e-9, 1024)
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
		w, _, err := cl.Current(0.5e-9, 512)
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

// TestSteadySimTraceMatchesCurrent pins the batched sizing path: a
// simulation served from a campaign-primed trace, resampled via
// FillFromSim, must reproduce the scalar Current waveform bit for bit at
// every clock the prime covers — including clocks whose stage-2 resize
// exceeds the stage-1 window.
func TestSteadySimTraceMatchesCurrent(t *testing.T) {
	seq := testSeq(t)
	cfg := uarch.CortexA72()
	dt, n := 0.5e-9, 2048
	clocks := []float64{1.2e9, 0.9e9, 0.6e9, 0.12e9}

	uarch.ResetTraceCache()
	prev := uarch.SetTraceCacheEnabled(false)
	defer func() { uarch.SetTraceCacheEnabled(prev); uarch.ResetTraceCache() }()

	maxCl := ClusterLoad{Core: cfg, Seq: seq, ClockHz: clocks[0], ActiveCores: 2}
	tr, err := uarch.PrimeTrace(cfg, seq, maxCl.PrimeSteadyCycles(dt, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, clock := range clocks {
		cl := ClusterLoad{Core: cfg, Seq: seq, ClockHz: clock, ActiveCores: 2}
		want, wantRes, err := cl.Current(dt, n)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cl.SteadySimTrace(dt, n, tr)
		if err != nil {
			t.Fatalf("clock %v: %v", clock, err)
		}
		if math.Float64bits(LoopFrequency(sim.Res, clock)) != math.Float64bits(LoopFrequency(wantRes, clock)) {
			t.Fatalf("clock %v: loop frequency diverges", clock)
		}
		got := make([]float64, n)
		if err := cl.FillFromSim(sim, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("clock %v: wave[%d] = %v != %v", clock, i, got[i], want[i])
			}
		}
		PutWave(want)
	}

	// A nil trace must fall back to per-point sizing with identical bits.
	cl := ClusterLoad{Core: cfg, Seq: seq, ClockHz: clocks[1], ActiveCores: 2}
	want, _, err := cl.Current(dt, n)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cl.SteadySimTrace(dt, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := cl.FillFromSim(sim, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("nil trace: wave[%d] = %v != %v", i, got[i], want[i])
		}
	}
	PutWave(want)
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
