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
// charge bits, same loop cycles — with the cache on or off.
func TestPrimeTraceSynthMatchesRun(t *testing.T) {
	cfg := CortexA72()
	pool := isa.ARM64Pool()
	rng := rand.New(rand.NewSource(17))
	seq := pool.RandomSequence(rng, 24)

	for _, cache := range []bool{true, false} {
		ResetTraceCache()
		prev := SetTraceCacheEnabled(cache)
		tr, err := PrimeTrace(cfg, seq, 2000)
		if err != nil {
			t.Fatalf("cache=%v: prime: %v", cache, err)
		}
		for _, ms := range []int{150, 700, 2000} {
			if !tr.Covers(ms) {
				t.Fatalf("cache=%v: primed trace does not cover %d", cache, ms)
			}
			got, err := tr.Synth(ms)
			if err != nil {
				t.Fatalf("cache=%v: synth(%d): %v", cache, ms, err)
			}
			requireSameResult(t, "synth", got, uncachedRun(t, cfg, seq, ms))
			lc, err := tr.LoopCyclesAt(ms)
			if err != nil {
				t.Fatalf("cache=%v: loop cycles at %d: %v", cache, ms, err)
			}
			if math.Float64bits(lc) != math.Float64bits(got.LoopCycles) {
				t.Fatalf("cache=%v: LoopCyclesAt(%d) = %v, synth says %v", cache, ms, lc, got.LoopCycles)
			}
		}
		if tr.Covers(2001) {
			t.Fatalf("cache=%v: trace claims to cover beyond its primed window", cache)
		}
		SetTraceCacheEnabled(prev)
	}
	ResetTraceCache()
}

// TestPrimeTraceValidation checks that priming rejects the same degenerate
// inputs RunWindow does, and that a nil trace is inert.
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
