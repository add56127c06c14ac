package emnoise

// Bit-identity tests for generation-batched evaluation: the batch path
// (dedup + persistent store + slab arenas) must produce exactly the bytes
// an independent per-individual reference produces, at any parallelism.
// `go test -race` over this file also drives the batch workers under the
// race detector.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/em"
	"repro/internal/ga"
	"repro/internal/platform"
	"repro/internal/slab"
)

// emMeasureRef is the EM fitness computed straight down the pipeline —
// spectra into a fresh arena, antenna fold, analyzer peak — with no memo,
// dedup or recycled arena. A bench's own Measure is itself a batch of
// one, so the batch tests compare against this instead.
func emMeasureRef(b *Bench, d *Domain, activeCores int) Measurer {
	return MeasurerFunc(func(seq []Inst) (float64, float64, error) {
		freqs, iAmp, _, err := d.SpectraArena(platform.Load{Seq: seq, ActiveCores: activeCores}, b.Dt, b.N, &slab.Arena{})
		if err != nil {
			return 0, 0, err
		}
		watts := make([]float64, len(freqs))
		if _, err := em.CombineInto(watts, b.Platform.Antenna, []em.Emitter{
			{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
		}); err != nil {
			return 0, 0, err
		}
		m, err := b.Analyzer.MeasurePeak(freqs, watts, b.Band.Lo, b.Band.Hi, b.Samples)
		if err != nil {
			return 0, 0, err
		}
		return m.PeakDBm, m.PeakHz, nil
	})
}

// batchGARun executes a small GA on a fresh platform, optionally through
// the reference measurer instead of the bench's batch path, and returns the
// result plus the bench for stats checks.
func batchGARun(t *testing.T, parallelism int, scalar bool) (*GAResult, *Bench) {
	t.Helper()
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
	cfg.PopulationSize = 14
	cfg.Generations = 7
	cfg.Seed = 11
	cfg.Parallelism = parallelism
	m := bench.EMMeasurer(d, 2)
	if scalar {
		// A bare MeasurerFunc has no MeasureBatch, so the GA measures one
		// individual at a time, and the reference never touches the bench.
		m = emMeasureRef(bench, d, 2)
	}
	res, err := RunGA(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, bench
}

// TestBatchMatchesScalarGA pins the batch guarantee: a GA run through
// MeasureBatch is bit-for-bit the run through per-individual reference
// measurements — same best, same history, same final population — at
// serial and parallel worker counts.
func TestBatchMatchesScalarGA(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		scalarRes, scalarBench := batchGARun(t, parallelism, true)
		batchRes, batchBench := batchGARun(t, parallelism, false)
		if bs := scalarBench.BatchStats(); bs.Batches != 0 {
			t.Fatalf("j=%d: scalar run used the batch path: %+v", parallelism, bs)
		}
		if bs := batchBench.BatchStats(); bs.Batches == 0 {
			t.Fatalf("j=%d: batch run never used the batch path", parallelism)
		}
		if !reflect.DeepEqual(scalarRes.Best, batchRes.Best) {
			t.Errorf("j=%d: best differs:\nscalar %+v\nbatch  %+v", parallelism, scalarRes.Best, batchRes.Best)
		}
		if !reflect.DeepEqual(scalarRes.History, batchRes.History) {
			t.Errorf("j=%d: generation history differs between scalar and batch", parallelism)
		}
		if !reflect.DeepEqual(scalarRes.FinalPopulation, batchRes.FinalPopulation) {
			t.Errorf("j=%d: final population differs between scalar and batch", parallelism)
		}
	}
}

// TestMeasureBatchMatchesScalarRandomPopulations is the direct property
// test: random populations salted with exact duplicates and with bred
// children must come back element-for-element identical to the reference
// measurer, at -j 1 and -j 8, with every duplicate fanned out from one
// measurement and the -j 8 repeat served by the persistent store — and so
// must the bench's scalar Measure, a batch of one.
func TestMeasureBatchMatchesScalarRandomPopulations(t *testing.T) {
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
	m := bench.EMMeasurer(d, 2)
	bm, ok := m.(ga.BatchMeasurer)
	if !ok {
		t.Fatal("bench EM measurer does not implement ga.BatchMeasurer")
	}

	ref := emMeasureRef(bench, d, 2)
	store := openCampaignStore(t)
	// The scalar Measure runs on a bench of its own, outside the store, so
	// its batch of one computes.
	scalarBench, err := NewBench(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	scalarBench.Samples = 3
	scalar := scalarBench.EMMeasurer(d, 2)

	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		var items []ga.BatchItem
		for i := 0; i < 6; i++ {
			parent := pool.RandomSequence(rng, 12)
			items = append(items, ga.BatchItem{Seq: parent})
			// A bred child: shares the parent's prefix up to one mutated
			// gene.
			div := 4 + rng.Intn(6)
			child := append([]Inst(nil), parent...)
			child[div] = pool.RandomInst(rng)
			items = append(items, ga.BatchItem{Seq: child})
			// An exact duplicate of the parent (a converged clone).
			items = append(items, ga.BatchItem{Seq: append([]Inst(nil), parent...)})
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

		want := make([]ga.BatchResult, len(items))
		for i, it := range items {
			fit, dom, err := ref.Measure(it.Seq)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ga.BatchResult{Fitness: fit, DominantHz: dom}
		}
		// The batches run over a persistent store: the -j 1 batch fills
		// it, and the -j 8 repeat is served from it.
		withPersist(t, store, func() {
			for _, parallelism := range []int{1, 8} {
				got, err := bm.MeasureBatch(items, parallelism)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(items) {
					t.Fatalf("trial %d j=%d: %d results for %d items", trial, parallelism, len(got), len(items))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("trial %d j=%d item %d: batch %+v, reference %+v",
							trial, parallelism, i, got[i], want[i])
					}
				}
			}
		})
		for i, it := range items {
			fit, dom, err := scalar.Measure(it.Seq)
			if err != nil {
				t.Fatal(err)
			}
			if got := (ga.BatchResult{Fitness: fit, DominantHz: dom}); got != want[i] {
				t.Errorf("trial %d item %d: scalar Measure %+v, reference %+v", trial, i, got, want[i])
			}
		}
	}
	bs := bench.BatchStats()
	if bs.DedupHits == 0 {
		t.Errorf("duplicate-salted populations produced no dedup hits: %+v", bs)
	}
	if bs.MemoHits == 0 {
		t.Errorf("repeated batches produced no store hits: %+v", bs)
	}
	if bs.Measured+bs.DedupHits+bs.MemoHits != bs.Items {
		t.Errorf("batch accounting leak: %+v", bs)
	}
}
