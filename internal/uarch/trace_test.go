package uarch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestPrimeTraceSynthMatchesRun pins the campaign-priming contract: a trace
// primed once at a large steady window synthesizes, for every smaller
// window, the exact Result a fresh Run at that window produces — same
// charge bits, same loop cycles.
func TestPrimeTraceSynthMatchesRun(t *testing.T) {
	cfg := CortexA72()
	pool := isa.ARM64Pool()
	rng := rand.New(rand.NewSource(17))
	seq := pool.RandomSequence(rng, 24)

	tr, err := PrimeTrace(cfg, seq, 2000)
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	for _, ms := range []int{150, 700, 2000} {
		if !tr.Covers(ms) {
			t.Fatalf("primed trace does not cover %d", ms)
		}
		got, err := tr.Synth(ms)
		if err != nil {
			t.Fatalf("synth(%d): %v", ms, err)
		}
		requireSameResult(t, "synth", got, exactRun(t, cfg, seq, ms, true))
		lc, err := tr.LoopCyclesAt(ms)
		if err != nil {
			t.Fatalf("loop cycles at %d: %v", ms, err)
		}
		if math.Float64bits(lc) != math.Float64bits(got.LoopCycles) {
			t.Fatalf("LoopCyclesAt(%d) = %v, synth says %v", ms, lc, got.LoopCycles)
		}
	}
	if tr.Covers(2001) {
		t.Fatal("trace claims to cover beyond its primed window")
	}
}

// TestPrimeTraceValidation checks that priming rejects the same degenerate
// inputs Run does, and that a nil trace is inert.
func TestPrimeTraceValidation(t *testing.T) {
	cfg := CortexA72()
	seq := isa.ARM64Pool().RandomSequence(rand.New(rand.NewSource(3)), 10)
	if _, err := PrimeTrace(cfg, nil, 100); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := PrimeTrace(cfg, seq, 0); err == nil {
		t.Fatal("zero steady window accepted")
	}
	var tr *Trace
	if tr.Covers(100) {
		t.Fatal("nil trace claims coverage")
	}
}

// requireSameResult compares two Results bit-for-bit: the determinism
// contract is that synthesized and fresh runs are indistinguishable.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Warmup != want.Warmup || got.Iterations != want.Iterations {
		t.Fatalf("%s: warmup/iterations (%d, %d) != (%d, %d)",
			label, got.Warmup, got.Iterations, want.Warmup, want.Iterations)
	}
	if math.Float64bits(got.LoopCycles) != math.Float64bits(want.LoopCycles) {
		t.Fatalf("%s: LoopCycles %v != %v", label, got.LoopCycles, want.LoopCycles)
	}
	if math.Float64bits(got.IPC) != math.Float64bits(want.IPC) {
		t.Fatalf("%s: IPC %v != %v", label, got.IPC, want.IPC)
	}
	if len(got.Charge) != len(want.Charge) {
		t.Fatalf("%s: charge length %d != %d", label, len(got.Charge), len(want.Charge))
	}
	for i := range got.Charge {
		if math.Float64bits(got.Charge[i]) != math.Float64bits(want.Charge[i]) {
			t.Fatalf("%s: charge[%d] = %v != %v", label, i, got.Charge[i], want.Charge[i])
		}
	}
}

// exactRun simulates exactly the window requested, with no priming
// headroom. With extrapolate false, steady-state extrapolation is off for
// this one simulation, so every cycle goes through the per-cycle stages.
func exactRun(t *testing.T, cfg Config, seq []isa.Inst, minSteady int, extrapolate bool) *Result {
	t.Helper()
	s := newSim(&cfg, seq, simHint(minSteady))
	if !extrapolate {
		s.pendingP = -1
	}
	hist, err := s.run(minSteady)
	s.release()
	if err != nil {
		t.Fatalf("exact run: %v", err)
	}
	res, err := hist.synth(minSteady)
	if err != nil {
		t.Fatalf("exact synth: %v", err)
	}
	return res
}

// TestShorterRunIsPrefix checks the lemma Trace.Synth rests on: a run
// with a shorter steady window is a strict prefix of a longer one — same
// charge bits, same iteration starts, same cumulative issue counts.
func TestShorterRunIsPrefix(t *testing.T) {
	pools := map[string]*isa.Pool{"arm64": isa.ARM64Pool(), "x86": isa.X86Pool()}
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		for pname, pool := range pools {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 4; trial++ {
				seq := pool.RandomSequence(rng, 5+rng.Intn(60))
				short, err := newSim(&cfg, seq, simHint(200)).run(200)
				if err != nil {
					t.Fatal(err)
				}
				long, err := newSim(&cfg, seq, simHint(1500)).run(1500)
				if err != nil {
					t.Fatal(err)
				}
				if short.warmup != long.warmup {
					t.Fatalf("%s/%s: warmup %d != %d", cfg.Name, pname, short.warmup, long.warmup)
				}
				for i, q := range short.charge {
					if math.Float64bits(q) != math.Float64bits(long.charge[i]) {
						t.Fatalf("%s/%s: charge[%d] diverges: %v != %v", cfg.Name, pname, i, q, long.charge[i])
					}
				}
				for i, c := range short.cumIssued {
					if c != long.cumIssued[i] {
						t.Fatalf("%s/%s: cumIssued[%d] diverges: %d != %d", cfg.Name, pname, i, c, long.cumIssued[i])
					}
				}
				for i, c := range short.iterStarts {
					if c != long.iterStarts[i] {
						t.Fatalf("%s/%s: iterStarts[%d] diverges: %d != %d", cfg.Name, pname, i, c, long.iterStarts[i])
					}
				}
			}
		}
	}
}

// fakeHist fabricates a minimal history of the given total length so
// the synthesis error path can be tested without running a simulation.
func fakeHist(cfg *Config, n int) *traceHist {
	return &traceHist{cfg: cfg, charge: make([]float64, n), cumIssued: make([]int64, n), warmup: 1, steady: n - 1}
}

// TestSynthErrorMatchesFreshRun: synthesizing a window that a fresh run
// could never reach must reproduce the fresh run's error text.
func TestSynthErrorMatchesFreshRun(t *testing.T) {
	cfg := CortexA72()
	// A fresh Run(1) fails if steady state needs more than 1*64+100000
	// cycles; fabricate a history whose warmup alone exceeds that.
	h := fakeHist(&cfg, 200002)
	h.warmup = 200000
	h.steady = 2
	if _, err := h.synth(1); err == nil || err.Error() != steadyStateErr(1).Error() {
		t.Fatalf("synth error = %v, want %v", err, steadyStateErr(1))
	}
	if _, err := h.synth(2); err == nil {
		t.Fatal("expected limit error for M=2")
	}
}
