package emnoise

// Fleet-path benchmark: a converged GA generation evaluated through the
// campaign orchestrator. BenchmarkFleetGeneration reads against PR6's
// BenchmarkGenerationBatch/batch64 — the delta is the pure coordination
// tax of sharding a generation across rigs (queueing, stealing, merge),
// which for an in-process fleet should be small change on top of the
// batch path it wraps.

import (
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/ga"
)

// localFleet assembles n in-process rigs on fresh Juno benches matching
// the convergedPopulation bench (seed 3, 3-sample averaging).
func localFleet(b *testing.B, n int) *fleet.Fleet {
	b.Helper()
	rigs := make([]fleet.Rig, n)
	for i := range rigs {
		plat, err := JunoR2()
		if err != nil {
			b.Fatal(err)
		}
		bench, err := NewBench(plat, 3)
		if err != nil {
			b.Fatal(err)
		}
		bench.Samples = 3
		bench.Parallelism = 1
		l, err := backend.NewLocal(bench)
		if err != nil {
			b.Fatal(err)
		}
		rigs[i] = fleet.Rig{Backend: l}
	}
	f, err := fleet.New(rigs, fleet.Options{Slots: 2})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFleetGeneration evaluates successive bred generations of a
// converged 64-individual population through 1- and 2-rig fleets; ns/op is
// per individual, directly comparable to BenchmarkGenerationBatch/batch64.
func BenchmarkFleetGeneration(b *testing.B) {
	for _, v := range []struct {
		name string
		rigs int
	}{{"fleet1x64", 1}, {"fleet2x64", 2}} {
		b.Run(v.name, func(b *testing.B) {
			cfg, pop, _, _ := convergedPopulation(b)
			f := localFleet(b, v.rigs)
			defer f.Close()
			m, err := f.Measurer(backend.MeasurerSpec{
				Domain:      DomainA72,
				Metric:      backend.MetricEM,
				ActiveCores: 2,
				Samples:     3,
			})
			if err != nil {
				b.Fatal(err)
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
