package emnoise

// Hot-path benchmarks for the measurement pipeline, each in a cold and a
// cached variant. Cold disables the uarch trace cache, so every operating
// point pays a full cycle-accurate simulation; cached runs with it warm, so
// clock and supply changes only re-synthesize and resample the stored
// charge history. Fresh platforms or a per-iteration supply perturbation
// (the trace key omits the supply) keep every other layer computing, so
// the pairs isolate the trace cache itself.
// These are the benchmarks recorded by `make bench` (BENCH_OUT, default
// BENCH_pr4.json).

import (
	"math/rand"
	"testing"

	"repro/internal/uarch"
)

// withBenchTraceCache flips the trace cache for one benchmark variant,
// starting from an empty cache, and restores the prior state afterwards.
func withBenchTraceCache(b *testing.B, on bool) {
	b.Helper()
	prev := uarch.SetTraceCacheEnabled(on)
	uarch.ResetTraceCache()
	b.Cleanup(func() {
		uarch.SetTraceCacheEnabled(prev)
		uarch.ResetTraceCache()
	})
}

// BenchmarkSpectraEvaluation times one spectra evaluation of a fixed
// workload (uarch trace → current resample → PDN transfer → FFT). The
// supply is nudged every iteration, as it was when a spectra memo could
// serve a repeat, so the numbers stay comparable with earlier records;
// with the trace cache on, only the simulation is skipped.
func BenchmarkSpectraEvaluation(b *testing.B) {
	for _, v := range []struct {
		name string
		on   bool
	}{{"cold", false}, {"cached", true}} {
		b.Run(v.name, func(b *testing.B) {
			withBenchTraceCache(b, v.on)
			plat, err := JunoR2()
			if err != nil {
				b.Fatal(err)
			}
			d, err := plat.Domain(DomainA72)
			if err != nil {
				b.Fatal(err)
			}
			pool := d.Spec.Pool()
			rng := rand.New(rand.NewSource(17))
			const (
				dt = 0.25e-9
				n  = 8192
			)
			clock := d.Spec.MaxClockHz
			vnom := d.SupplyVolts()
			seq := pool.RandomSequence(rng, 50)
			l := Load{Seq: seq, ActiveCores: 2}
			// Prime the PDN transfer cache (computed once per domain) and,
			// in the cached variant, the trace cache.
			if _, _, _, _, err := d.SpectraAt(l, dt, n, clock); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := d.SetSupplyVolts(vnom - float64(i%100000+1)*1e-7); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, _, _, err := d.SpectraAt(l, dt, n, clock); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitnessEvaluation times one full GA fitness measurement of a
// never-seen individual: spectra, EM coupling, and the analyzer's sampled
// peak measurement. Every iteration draws a fresh random sequence, which
// is the load profile a GA generation presents.
func BenchmarkFitnessEvaluation(b *testing.B) {
	for _, v := range []struct {
		name string
		on   bool
	}{{"cold", false}, {"cached", true}} {
		b.Run(v.name, func(b *testing.B) {
			withBenchTraceCache(b, v.on)
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
			pool := d.Spec.Pool()
			rng := rand.New(rand.NewSource(23))
			m := bench.EMMeasurer(d, 2)
			if _, _, err := m.Measure(pool.RandomSequence(rng, 50)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				seq := pool.RandomSequence(rng, 50)
				b.StartTimer()
				if _, _, err := m.Measure(seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResonanceSweep times the Section 5.3 fast resonance sweep over
// the full clock range. The platform (and its PDN transfer sets) is built
// once outside the timer; the supply is nudged every iteration, as it was
// when a spectra memo could serve a step. The cached variant therefore measures
// exactly what the trace cache saves: every clock step re-uses one
// probe-loop charge history instead of re-simulating it.
func BenchmarkResonanceSweep(b *testing.B) {
	for _, v := range []struct {
		name string
		on   bool
	}{{"cold", false}, {"cached", true}} {
		b.Run(v.name, func(b *testing.B) {
			withBenchTraceCache(b, v.on)
			plat, err := AMDDesktop()
			if err != nil {
				b.Fatal(err)
			}
			bench, err := NewBench(plat, 7)
			if err != nil {
				b.Fatal(err)
			}
			bench.Samples = 3
			bench.Parallelism = 1
			bench.Dt = 0.5e-9
			d, err := plat.Domain(DomainAthlon)
			if err != nil {
				b.Fatal(err)
			}
			vnom := d.SupplyVolts()
			// Warm the transfer cache and, in the cached variant, the
			// trace cache.
			if _, err := bench.FastResonanceSweep(d, 4); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := d.SetSupplyVolts(vnom - float64(i%100000+1)*1e-7); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := bench.FastResonanceSweep(d, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShmoo times a three-clock V_MIN shmoo on the Juno A72 domain.
// The V_MIN search path (SteadyResponseAt) is unmemoized, so one shared
// platform suffices: every iteration re-runs the whole clock×supply grid,
// and the trace cache carries the workload's charge history across all of
// its operating points.
func BenchmarkShmoo(b *testing.B) {
	for _, v := range []struct {
		name string
		on   bool
	}{{"cold", false}, {"cached", true}} {
		b.Run(v.name, func(b *testing.B) {
			withBenchTraceCache(b, v.on)
			plat, err := JunoR2()
			if err != nil {
				b.Fatal(err)
			}
			d, err := plat.Domain(DomainA72)
			if err != nil {
				b.Fatal(err)
			}
			w, err := WorkloadByName("probe")
			if err != nil {
				b.Fatal(err)
			}
			seq, err := w.Build(d.Spec.Pool())
			if err != nil {
				b.Fatal(err)
			}
			tester := NewVminTester(d, 13)
			tester.Parallelism = 1
			steps := d.ClockSteps()
			clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[len(steps)/4]}
			run := func() {
				if _, err := tester.Shmoo(Load{Seq: seq, ActiveCores: 2}, clocks); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the transfer cache and, when enabled, the trace cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
