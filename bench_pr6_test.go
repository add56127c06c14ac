package emnoise

// Generation-batched evaluation benchmarks and the cached-vs-cold repeat
// guarantee. BenchmarkGenerationBatch is the PR6 headline number: one
// converged GA generation evaluated through the batch path (dedup + slab
// arenas) against the per-individual scalar path, normalized per
// individual so it reads against BenchmarkFitnessEvaluation.

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
// converged 64-individual population; ns/op is per individual of the
// generation. Elites and children bred unchanged carry their readings and
// cost nothing on either variant. The scalar64 variant hides MeasureBatch,
// so every other individual pays a full per-individual measurement, clones
// included; batch64 routes through MeasureBatch, where clone children
// dedup against batchmates.
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

// TestRepeatMeasurementCachedNotSlower pins the cached-path guarantee
// where it actually pays: re-measuring a sequence the persistent store
// already holds. With the store installed a repeat on a fresh bench is a
// store hit; without it the repeat pays the full pipeline. The cached
// median must not exceed the cold median (the real margin is several
// fold, so this is robust to container timing noise).
func TestRepeatMeasurementCachedNotSlower(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	d, err := plat.Domain(DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Spec.Pool()
	seq := pool.RandomSequence(rand.New(rand.NewSource(31)), 50)
	// Each repeat runs on a fresh bench over the same platform and
	// analyzer seed, so only the store can serve it.
	fresh := func() Measurer {
		b, err := NewBench(plat, 3)
		if err != nil {
			t.Fatal(err)
		}
		b.Samples = 3
		return b.EMMeasurer(d, 2)
	}

	const k = 7
	store := openCampaignStore(t)
	var warm time.Duration
	withPersist(t, store, func() {
		// Prime the store and every in-memory layer, then time repeats the
		// store serves.
		if _, _, err := fresh().Measure(seq); err != nil {
			t.Fatal(err)
		}
		hits := store.Stats().Hits
		warm = medianRepeatMeasure(t, fresh, seq, k)
		if got := store.Stats().Hits - hits; got != k {
			t.Fatalf("%d store hits over %d warm repeats", got, k)
		}
	})
	// Cold repeats: no store, so each pays the full pipeline.
	cold := medianRepeatMeasure(t, fresh, seq, k)

	if warm > cold {
		t.Errorf("cached repeat measurement slower than cold: warm %v > cold %v", warm, cold)
	}
}
