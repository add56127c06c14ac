package emnoise

// Generation-batched evaluation benchmarks and the cached-vs-cold repeat
// guarantee. BenchmarkGenerationBatch is the PR6 headline number: one
// converged GA generation evaluated through the batch path (dedup +
// measurement memo + slab arenas) against the per-individual scalar path,
// normalized per individual so it reads against BenchmarkFitnessEvaluation.

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/ga"
)

// convergedPopulation runs a real GA to convergence and returns its config,
// final measured population, and the bench, so generation benchmarks start
// from the duplicate-heavy populations late generations actually present.
func convergedPopulation(b *testing.B) (ga.Config, []ga.Individual, Measurer, *Bench) {
	b.Helper()
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 3)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultGAConfig(d.Spec.Pool())
	cfg.PopulationSize = 64
	cfg.Generations = 30
	cfg.Seed = 5
	cfg.Parallelism = 1
	m := bench.EMMeasurer(d, 2)
	res, err := RunGA(cfg, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, res.FinalPopulation, m, bench
}

// BenchmarkGenerationBatch evaluates successive bred generations of a
// converged 64-individual population; ns/op is per individual. The scalar64
// variant hides MeasureBatch so every individual pays a full per-individual
// measurement; batch64 routes through MeasureBatch, where clone children
// dedup against batchmates and elites hit the cross-generation memo.
func BenchmarkGenerationBatch(b *testing.B) {
	for _, v := range []struct {
		name   string
		scalar bool
	}{{"scalar64", true}, {"batch64", false}} {
		b.Run(v.name, func(b *testing.B) {
			cfg, pop, m, _ := convergedPopulation(b)
			if v.scalar {
				m = MeasurerFunc(m.Measure)
			}
			rng := rand.New(rand.NewSource(99))
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(pop) {
				b.StopTimer()
				pop = ga.NextGeneration(cfg, rng, pop)
				b.StartTimer()
				if err := ga.EvaluatePopulation(pop, m, cfg.Parallelism); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// medianRepeatMeasure times k repeat measurements of the same sequence,
// each through the measurer the call returns, and returns the median.
func medianRepeatMeasure(t *testing.T, measurer func() Measurer, seq []Inst, k int) time.Duration {
	t.Helper()
	times := make([]time.Duration, k)
	for i := range times {
		m := measurer()
		start := time.Now()
		if _, _, err := m.Measure(seq); err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[k/2]
}

// TestRepeatMeasurementCachedNotSlower pins the PR6 cached-path guarantee
// where it actually pays: re-measuring a sequence the rig has already seen.
// With the memo warm a repeat is a measurement-memo hit; with the memo
// defeated it pays the full pipeline. The cached median must not exceed the
// cold median (the real margin is several fold, so this is robust to
// container timing noise).
func TestRepeatMeasurementCachedNotSlower(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Spec.Pool()
	seq := pool.RandomSequence(rand.New(rand.NewSource(31)), 50)
	m := bench.EMMeasurer(d, 2)

	// Prime every cache layer, then time warm repeats.
	if _, _, err := m.Measure(seq); err != nil {
		t.Fatal(err)
	}
	const k = 7
	warm := medianRepeatMeasure(t, func() Measurer { return m }, seq, k)

	// Cold repeats: each on a fresh bench over the same platform and
	// analyzer seed, whose empty measurement memo pays the full pipeline.
	cold := medianRepeatMeasure(t, func() Measurer {
		fresh, err := NewBench(plat, 3)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Samples = 3
		return fresh.EMMeasurer(d, 2)
	}, seq, k)

	if warm > cold {
		t.Errorf("cached repeat measurement slower than cold: warm %v > cold %v", warm, cold)
	}
}
