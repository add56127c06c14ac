package ga

import (
	"math/rand"

	"repro/internal/isa"
)

// BatchItem is one individual in a generation-batched measurement request.
type BatchItem struct {
	Seq []isa.Inst
}

// BatchResult is the measured outcome for the same-index BatchItem.
type BatchResult struct {
	Fitness    float64
	DominantHz float64
}

// BatchMeasurer is a Measurer that can evaluate an entire generation in one
// call — deduplicating identical post-mutation children, sharing slab
// scratch across the batch, and bounding its own parallelism. MeasureBatch
// must return one result per item, each bit-identical to what Measure would
// return for that sequence at any parallelism value. The GA hands it each
// generation's unmeasured individuals in one call.
type BatchMeasurer interface {
	Measurer
	MeasureBatch(items []BatchItem, parallelism int) ([]BatchResult, error)
}

// EvaluatePopulation measures a population in place exactly the way Run
// does between generations: the individuals without a reading, in one
// batch (MeasureBatch when the measurer is a BatchMeasurer, otherwise one
// Measure per individual on up to parallelism workers). Exposed for
// programs and benchmarks that step generations manually.
func EvaluatePopulation(pop []Individual, m Measurer, parallelism int) error {
	return measureAll(pop, m, parallelism)
}

// NextGeneration breeds the successor of a measured population using cfg's
// operators (cfg must be valid); elites, and children equal to a measured
// parent, keep their reading. Exposed alongside EvaluatePopulation for
// manual generation stepping; Run is the composition of the two.
func NextGeneration(cfg Config, rng *rand.Rand, pop []Individual) []Individual {
	return nextGeneration(cfg, rng, pop)
}
