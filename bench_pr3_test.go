package emnoise

// Hot-path benchmarks for the measurement pipeline. Every operating point
// pays its cycle-accurate simulation, except that a campaign (a sweep or a
// shmoo) primes one charge history and synthesizes every clock from it.
// Fresh platforms or a per-iteration supply perturbation keep every other
// layer computing. `make bench` runs these.

import (
	"math/rand"
	"testing"

	"repro/internal/slab"
)

// BenchmarkSpectraEvaluation times one spectra evaluation of a fixed
// workload at a fixed operating point (uarch sizing → current resample →
// PDN transfer → FFT), the body a sweep point runs: PreparePointAt on an
// unprimed point, then PointEval.SpectraArena into a per-iteration arena.
func BenchmarkSpectraEvaluation(b *testing.B) {
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
	clock, supply, powered := d.Spec.MaxClockHz, d.SupplyVolts(), d.PoweredCores()
	l := Load{Seq: pool.RandomSequence(rng, 50), ActiveCores: 2}
	var ar slab.Arena
	eval := func() {
		ar.Reset()
		pe, err := d.PreparePointAt(l, dt, n, clock, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := pe.SpectraArena(supply, powered, &ar); err != nil {
			b.Fatal(err)
		}
	}
	eval() // prime the PDN transfer cache (computed once per domain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval()
	}
}

// BenchmarkFitnessEvaluation times one full GA fitness measurement of a
// never-seen individual: spectra, EM coupling, and the analyzer's sampled
// peak measurement. Every iteration draws a fresh random sequence, which
// is the load profile a GA generation presents.
func BenchmarkFitnessEvaluation(b *testing.B) {
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
}

// BenchmarkResonanceSweep times the Section 5.3 fast resonance sweep over
// the full clock range. The platform (and its PDN transfer sets) is built
// once outside the timer. Every clock step synthesizes from one primed
// probe-loop charge history instead of re-simulating it.
func BenchmarkResonanceSweep(b *testing.B) {
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
	// Warm the transfer cache.
	if _, err := bench.FastResonanceSweep(d, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.FastResonanceSweep(d, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmoo times a three-clock V_MIN shmoo on the Juno A72 domain.
// The per-column supply ladders live only as long as one Shmoo call, so one
// shared platform suffices: every iteration re-runs the whole clock×supply
// grid, and one primed trace carries the workload's charge history across
// all of its operating points.
func BenchmarkShmoo(b *testing.B) {
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
	run() // warm the transfer cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
