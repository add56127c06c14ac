package emnoise

// Determinism regression tests for the parallel evaluation engine: every
// parallel path (GA fitness, island GA, fast resonance sweep, shmoo) must
// produce bit-identical results at any worker count. These tests pin the
// core guarantee the instruments' content-derived noise streams provide;
// `go test -race` over this file also exercises the concurrent paths under
// the race detector.

import (
	"reflect"
	"testing"
)

// gaRun executes a small GA on a freshly built platform at the given
// parallelism. A fresh platform per run keeps the domain caches
// independent, so any cross-talk would show up as a difference.
func gaRun(t *testing.T, build func() (*Platform, error), domain string, cores, parallelism int) *GAResult {
	t.Helper()
	plat, err := build()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(domain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(d.Spec.Pool())
	cfg.PopulationSize = 12
	cfg.Generations = 6
	cfg.Seed = 21
	cfg.Parallelism = parallelism
	res, err := RunGA(cfg, bench.EMMeasurer(d, cores), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGADeterministicAcrossParallelism(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*Platform, error)
		domain string
		cores  int
	}{
		{"juno-a72", JunoR2, DomainA72, 2},
		{"amd-athlon", AMDDesktop, DomainAthlon, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := gaRun(t, tc.build, tc.domain, tc.cores, 1)
			parallel := gaRun(t, tc.build, tc.domain, tc.cores, 8)
			if !reflect.DeepEqual(serial.Best, parallel.Best) {
				t.Errorf("best individual differs:\nserial   %+v\nparallel %+v",
					serial.Best, parallel.Best)
			}
			if !reflect.DeepEqual(serial.History, parallel.History) {
				t.Error("generation history differs between parallelism 1 and 8")
			}
			if !reflect.DeepEqual(serial.FinalPopulation, parallel.FinalPopulation) {
				t.Error("final population differs between parallelism 1 and 8")
			}
		})
	}
}

func TestIslandGADeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) *GAResult {
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
		base := DefaultGAConfig(d.Spec.Pool())
		base.PopulationSize = 10
		base.Generations = 6
		base.Seed = 9
		base.Parallelism = parallelism
		cfg := IslandGAConfig{Base: base, Islands: 3, MigrationInterval: 2, Migrants: 1}
		res, err := RunIslandGA(cfg, bench.EMMeasurer(d, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial.Best, parallel.Best) {
		t.Errorf("island best differs:\nserial   %+v\nparallel %+v", serial.Best, parallel.Best)
	}
	if !reflect.DeepEqual(serial.History, parallel.History) {
		t.Error("island history differs between parallelism 1 and 8")
	}
	if !reflect.DeepEqual(serial.FinalPopulation, parallel.FinalPopulation) {
		t.Error("island final population differs between parallelism 1 and 8")
	}
}

func TestFastSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) *SweepResult {
		plat, err := JunoR2()
		if err != nil {
			t.Fatal(err)
		}
		bench, err := NewBench(plat, 5)
		if err != nil {
			t.Fatal(err)
		}
		bench.Samples = 3
		bench.Parallelism = parallelism
		d, err := plat.Domain(DomainA72)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.FastResonanceSweep(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sweep differs between parallelism 1 and 8:\nserial   %+v\nparallel %+v",
			serial, parallel)
	}
}

func TestShmooDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []ShmooPoint {
		plat, err := JunoR2()
		if err != nil {
			t.Fatal(err)
		}
		d, err := plat.Domain(DomainA72)
		if err != nil {
			t.Fatal(err)
		}
		w, err := WorkloadByName("probe")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.Build(d.Spec.Pool())
		if err != nil {
			t.Fatal(err)
		}
		tester := NewVminTester(d, 13)
		tester.Parallelism = parallelism
		steps := d.ClockSteps()
		clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[len(steps)/4]}
		points, err := tester.Shmoo(Load{Seq: seq, ActiveCores: 2}, clocks)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("shmoo differs between parallelism 1 and 8:\nserial   %+v\nparallel %+v",
			serial, parallel)
	}
}

// TestBatchAccountingDuringGA checks a GA run's batch traffic: elites and
// children bred unchanged carry their readings, so the run submits one
// batch per generation holding fewer individuals than the population
// times the generations, and every submitted individual is accounted for
// as measured, deduped, or served by the store.
func TestBatchAccountingDuringGA(t *testing.T) {
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
	cfg := DefaultGAConfig(d.Spec.Pool())
	cfg.PopulationSize = 12
	cfg.Generations = 8
	cfg.Seed = 2
	cfg.Parallelism = 4
	if _, err := RunGA(cfg, bench.EMMeasurer(d, 2), nil); err != nil {
		t.Fatal(err)
	}
	bs := bench.BatchStats()
	if bs.Batches != uint64(cfg.Generations) {
		t.Errorf("%d batches for %d generations: %+v", bs.Batches, cfg.Generations, bs)
	}
	if all := uint64(cfg.PopulationSize * cfg.Generations); bs.Items == 0 || bs.Items >= all {
		t.Errorf("submitted %d of %d individuals; the elites' readings were not carried: %+v", bs.Items, all, bs)
	}
	if bs.Measured+bs.DedupHits+bs.MemoHits != bs.Items {
		t.Errorf("batch accounting leak: measured %d + dedup %d + store %d != items %d",
			bs.Measured, bs.DedupHits, bs.MemoHits, bs.Items)
	}
	if bs.ArenaBytes == 0 {
		t.Errorf("batch evaluation reported zero arena high-water")
	}
}
