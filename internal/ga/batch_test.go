package ga

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

// batchSpy is a BatchMeasurer that records routing: every batch call and
// every scalar call, scoring with the shared synthetic objective so Run's
// results are comparable with the plain MeasurerFunc path.
type batchSpy struct {
	batches     int
	batchItems  int
	scalarCalls int
	short       bool // return one result too few, to exercise validation
	err         error
}

func (s *batchSpy) Measure(seq []isa.Inst) (float64, float64, error) {
	s.scalarCalls++
	return countSIMD(seq)
}

func (s *batchSpy) MeasureBatch(items []BatchItem, parallelism int) ([]BatchResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.batches++
	s.batchItems += len(items)
	results := make([]BatchResult, len(items))
	for i, it := range items {
		fit, dom, err := countSIMD(it.Seq)
		if err != nil {
			return nil, err
		}
		results[i] = BatchResult{Fitness: fit, DominantHz: dom}
	}
	if s.short {
		results = results[:len(results)-1]
	}
	return results, nil
}

// TestRunPrefersBatchMeasurer checks measureAll's routing: a BatchMeasurer
// gets one MeasureBatch call per generation covering every individual
// that enters it without a reading, never a scalar call, and the run's
// outcome matches the scalar path bit-for-bit.
func TestRunPrefersBatchMeasurer(t *testing.T) {
	carried := 0
	cfg := Observed(testConfig(), func(pop []Individual) {
		for _, in := range pop {
			if in.measured {
				carried++
			}
		}
	})
	spy := &batchSpy{}
	batched, err := Run(cfg, spy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spy.scalarCalls != 0 {
		t.Errorf("%d scalar Measure calls despite MeasureBatch", spy.scalarCalls)
	}
	wantBatches := cfg.Generations // one batch per generation
	if spy.batches != wantBatches {
		t.Errorf("MeasureBatch called %d times, want %d", spy.batches, wantBatches)
	}
	if carried == 0 {
		t.Error("no individual carried its reading into a later generation")
	}
	if want := wantBatches*cfg.PopulationSize - carried; spy.batchItems != want {
		t.Errorf("batched %d individuals, want %d (%d carried)", spy.batchItems, want, carried)
	}

	scalar, err := Run(cfg, MeasurerFunc(countSIMD), nil)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Best.Fitness != scalar.Best.Fitness || batched.Best.DominantHz != scalar.Best.DominantHz {
		t.Errorf("batch best %+v differs from scalar best %+v", batched.Best, scalar.Best)
	}
	for g := range scalar.History {
		bh, sh := batched.History[g], scalar.History[g]
		if bh.BestFitness != sh.BestFitness || bh.MeanFitness != sh.MeanFitness ||
			bh.BestDominant != sh.BestDominant {
			t.Fatalf("generation %d stats differ: batch %+v scalar %+v", g, bh, sh)
		}
	}
}

// TestBatchMeasurerShortResultRejected checks a result-count mismatch is a
// hard error, not silent truncation.
func TestBatchMeasurerShortResultRejected(t *testing.T) {
	_, err := Run(testConfig(), &batchSpy{short: true}, nil)
	if err == nil || !strings.Contains(err.Error(), "results") {
		t.Fatalf("err = %v, want result-count mismatch", err)
	}
}

// TestBatchMeasurerErrorPropagates checks MeasureBatch failures surface
// like scalar measurement failures do.
func TestBatchMeasurerErrorPropagates(t *testing.T) {
	boom := errors.New("rig offline")
	if _, err := Run(testConfig(), &batchSpy{err: boom}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped rig error", err)
	}
}

// TestEvaluatePopulationBatchAndScalar checks the exported stepper feeds
// both paths: results land in place, the batch path is preferred, and a
// population that already carries its readings is not submitted again.
func TestEvaluatePopulationBatchAndScalar(t *testing.T) {
	pool := isa.ARM64Pool()
	defOf := func(class isa.Class) *isa.Def {
		for i := range pool.Defs {
			if pool.Defs[i].Class == class {
				return &pool.Defs[i]
			}
		}
		t.Fatalf("pool has no %v instruction", class)
		return nil
	}
	mk := func() []Individual {
		pop := make([]Individual, 6)
		for i := range pop {
			// Deterministic mix: even individuals all-SIMD, odd all-integer.
			def := defOf(isa.SIMD)
			if i%2 == 1 {
				def = defOf(isa.IntShort)
			}
			seq := make([]isa.Inst, 8)
			for j := range seq {
				seq[j] = isa.Inst{Def: def}
			}
			pop[i] = Individual{Seq: seq}
		}
		return pop
	}
	spy := &batchSpy{}
	viaBatch := mk()
	if err := EvaluatePopulation(viaBatch, spy, 4); err != nil {
		t.Fatal(err)
	}
	if spy.batches != 1 || spy.scalarCalls != 0 {
		t.Fatalf("batch routing: %d batches, %d scalar calls", spy.batches, spy.scalarCalls)
	}
	// A measured population submits nothing.
	if err := EvaluatePopulation(viaBatch, spy, 4); err != nil {
		t.Fatal(err)
	}
	if spy.batches != 1 || spy.batchItems != len(viaBatch) {
		t.Fatalf("re-evaluation: %d batches, %d items", spy.batches, spy.batchItems)
	}
	viaScalar := mk()
	if err := EvaluatePopulation(viaScalar, MeasurerFunc(countSIMD), 4); err != nil {
		t.Fatal(err)
	}
	for i := range viaBatch {
		if viaBatch[i].Fitness != viaScalar[i].Fitness {
			t.Errorf("individual %d: batch fitness %v, scalar %v",
				i, viaBatch[i].Fitness, viaScalar[i].Fitness)
		}
		want := 1.0
		if i%2 == 1 {
			want = 0
		}
		if viaBatch[i].Fitness != want {
			t.Errorf("individual %d: fitness %v, want %v", i, viaBatch[i].Fitness, want)
		}
	}
}
