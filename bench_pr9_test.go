package emnoise

// BenchmarkWarmStart is the PR9 headline number: a repeat campaign from a
// COLD PROCESS. Every iteration rebuilds the platform, bench, and domain —
// exactly what a new `gahunt` invocation sees — then evaluates one fixed
// 32-individual generation through the batch path. The cold variant has no persistent store, so the
// whole simulate→respond→FFT→measure pipeline runs; the cached variant
// runs over a store populated once up front, so every individual is served
// by the disk tier. ns/op is per individual, directly comparable to
// BenchmarkGenerationBatch.

import (
	"math/rand"
	"testing"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/ga"
)

// withBenchPersist installs s under the measurement memo for the duration
// of the benchmark, as `-cache-dir` does, restoring the previous store on
// cleanup.
func withBenchPersist(b *testing.B, s *castore.Store) {
	b.Helper()
	prev := core.SetPersistentStore(s)
	b.Cleanup(func() { core.SetPersistentStore(prev) })
}

// warmStartPopulation builds the fixed generation every "process" in the
// benchmark re-evaluates: 32 distinct 50-instruction sequences drawn from
// the A72 pool with a pinned seed.
func warmStartPopulation(b *testing.B) []ga.Individual {
	b.Helper()
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	pool := d.Spec.Pool()
	rng := rand.New(rand.NewSource(41))
	pop := make([]ga.Individual, 32)
	for i := range pop {
		pop[i] = ga.Individual{Seq: pool.RandomSequence(rng, 50)}
	}
	return pop
}

// evaluateFreshProcess stands in for one cold process: fresh platform,
// fresh bench (empty measurement memo), then one batch evaluation of pop.
func evaluateFreshProcess(b *testing.B, pop []ga.Individual) {
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
	if err := ga.EvaluatePopulation(pop, bench.EMMeasurer(d, 2), 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWarmStart(b *testing.B) {
	for _, v := range []struct {
		name  string
		store bool
	}{{"cold", false}, {"cached", true}} {
		b.Run(v.name, func(b *testing.B) {
			pop := warmStartPopulation(b)
			if v.store {
				s, err := castore.Open(b.TempDir(), castore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				withBenchPersist(b, s)
				evaluateFreshProcess(b, pop) // populate the store once
			} else {
				withBenchPersist(b, nil) // genuinely cold: no disk tier
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(pop) {
				evaluateFreshProcess(b, pop)
			}
		})
	}
}
