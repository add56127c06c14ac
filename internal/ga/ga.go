// Package ga implements the paper's genetic-algorithm stress-test
// generation framework (Section 3): individuals are fixed-length assembly
// instruction sequences, fitness is supplied by a pluggable Measurer (EM
// peak amplitude for the paper's main methodology, direct voltage droop or
// peak-to-peak for the validation runs), and evolution uses tournament
// selection, one-point crossover and instruction/operand mutation.
package ga

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/isa"
	"repro/internal/par"
)

// Measurer evaluates one candidate stress loop. Higher fitness is better.
// The dominant frequency is whatever the instrument reports as the
// strongest spectral component (recorded per generation, Figure 7's right
// axis).
type Measurer interface {
	Measure(seq []isa.Inst) (fitness, dominantHz float64, err error)
}

// MeasurerFunc adapts a function to the Measurer interface.
type MeasurerFunc func(seq []isa.Inst) (float64, float64, error)

// Measure implements Measurer.
func (f MeasurerFunc) Measure(seq []isa.Inst) (float64, float64, error) { return f(seq) }

// Config holds the GA hyper-parameters. The defaults in DefaultConfig are
// the paper's empirically chosen values.
type Config struct {
	Pool           *isa.Pool
	PopulationSize int     // individuals per generation (paper: 50)
	Generations    int     // generations to run (paper: >= 60)
	SeqLen         int     // instructions per individual (paper: 50)
	MutationRate   float64 // per-gene mutation probability (paper: 2-4%)
	TournamentSize int     // tournament selection arity
	Elites         int     // best individuals copied unchanged
	// Selection and Crossover pick the breeding operators; the zero
	// values are the paper's tournament selection and one-point
	// crossover. The alternatives exist for the operator ablations.
	Selection Selection
	Crossover Crossover
	Seed      int64 // RNG seed (the GA itself is deterministic given
	// the seed and a deterministic Measurer)

	// Parallelism bounds the worker count for fitness evaluation: 0 or 1
	// evaluates serially, N > 1 uses up to N goroutines, and results are
	// collected by population index — so any setting yields bit-identical
	// Results as long as the Measurer is order-independent (the simulated
	// bench instruments are; see internal/detrand). The Measurer must also
	// be safe for concurrent use when Parallelism > 1: the local bench
	// measurers are, and remote measurement gets there via lab.Pool (one
	// pooled session per concurrent evaluation; see internal/lab).
	Parallelism int

	// InitialPopulation optionally seeds the first generation (a
	// population from a previous run, per Section 3.1); remaining slots
	// are filled randomly.
	InitialPopulation [][]isa.Inst

	// observe, when set, sees every generation's population before it is
	// measured, carried readings included, island by island (tests check
	// them through it).
	observe func(pop []Individual)
}

// DefaultConfig returns the paper's GA configuration for the given pool.
func DefaultConfig(pool *isa.Pool) Config {
	return Config{
		Pool:           pool,
		PopulationSize: 50,
		Generations:    60,
		SeqLen:         50,
		MutationRate:   0.03,
		TournamentSize: 3,
		Elites:         2,
		Seed:           1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Pool == nil:
		return fmt.Errorf("ga: nil instruction pool")
	case c.PopulationSize < 2:
		return fmt.Errorf("ga: population size %d", c.PopulationSize)
	case c.Generations < 1:
		return fmt.Errorf("ga: %d generations", c.Generations)
	case c.SeqLen < 1:
		return fmt.Errorf("ga: sequence length %d", c.SeqLen)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("ga: mutation rate %v", c.MutationRate)
	case c.TournamentSize < 1 || c.TournamentSize > c.PopulationSize:
		return fmt.Errorf("ga: tournament size %d", c.TournamentSize)
	case c.Elites < 0 || c.Elites >= c.PopulationSize:
		return fmt.Errorf("ga: %d elites with population %d", c.Elites, c.PopulationSize)
	case len(c.InitialPopulation) > c.PopulationSize:
		return fmt.Errorf("ga: initial population %d exceeds population size %d",
			len(c.InitialPopulation), c.PopulationSize)
	case c.Selection < Tournament || c.Selection > Roulette:
		return fmt.Errorf("ga: unknown selection scheme %d", c.Selection)
	case c.Crossover < OnePoint || c.Crossover > Uniform:
		return fmt.Errorf("ga: unknown crossover scheme %d", c.Crossover)
	case c.Parallelism < 0:
		return fmt.Errorf("ga: negative parallelism %d", c.Parallelism)
	}
	for i, seq := range c.InitialPopulation {
		if len(seq) != c.SeqLen {
			return fmt.Errorf("ga: initial individual %d has %d instructions, want %d",
				i, len(seq), c.SeqLen)
		}
	}
	return nil
}

// Individual is a candidate stress loop with its measured fitness.
type Individual struct {
	Seq        []isa.Inst
	Fitness    float64
	DominantHz float64
	// measured marks Fitness and DominantHz as Seq's reading. Elites and
	// children bred unchanged from a measured parent keep it, so a
	// generation submits only the individuals it has not seen; the zero
	// value is unmeasured.
	measured bool
}

// clone deep-copies an individual's sequence.
func (in Individual) clone() Individual {
	out := in
	out.Seq = make([]isa.Inst, len(in.Seq))
	copy(out.Seq, in.Seq)
	return out
}

// inherit gives child the reading of the first measured parent it equals
// gene for gene: a reading is a pure function of the sequence, so the
// child needs no measurement of its own.
func (child Individual) inherit(parents ...Individual) Individual {
	for _, p := range parents {
		if p.measured && slices.Equal(child.Seq, p.Seq) {
			child.Fitness, child.DominantHz, child.measured = p.Fitness, p.DominantHz, true
			break
		}
	}
	return child
}

// GenerationStats summarizes one generation (the per-generation series the
// paper plots in Figures 7, 12 and 17).
type GenerationStats struct {
	Gen          int
	BestFitness  float64
	MeanFitness  float64
	BestDominant float64
	Best         Individual
}

// Result is a finished GA run.
type Result struct {
	Best    Individual
	History []GenerationStats
	// FinalPopulation is the last generation with its measured fitness,
	// usable to seed a continuation run (Section 3.1) or an island model.
	FinalPopulation []Individual
}

// Run executes the GA: it is RunIslands with one island, which never
// migrates. The optional progress callback receives each generation's
// statistics as it completes.
func Run(cfg Config, m Measurer, progress func(GenerationStats)) (*Result, error) {
	var report func(IslandStats)
	if progress != nil {
		report = func(s IslandStats) { progress(s.GenerationStats) }
	}
	return RunIslands(IslandConfig{Base: cfg, Islands: 1, MigrationInterval: cfg.Generations, Migrants: 1}, m, report)
}

// initialPopulation is cfg's first generation: the InitialPopulation
// sequences, then random ones drawn from rng.
func initialPopulation(cfg Config, rng *rand.Rand) []Individual {
	pop := make([]Individual, cfg.PopulationSize)
	for i := range pop {
		if i < len(cfg.InitialPopulation) {
			seq := make([]isa.Inst, cfg.SeqLen)
			copy(seq, cfg.InitialPopulation[i])
			pop[i] = Individual{Seq: seq}
		} else {
			pop[i] = Individual{Seq: cfg.Pool.RandomSequence(rng, cfg.SeqLen)}
		}
	}
	return pop
}

// measureAll measures the individuals of pop that carry no reading, in
// one batch on up to parallelism workers. Each result lands at its own
// index, and the instruments' noise is order-independent, so the measured
// population is identical at any worker count.
func measureAll(pop []Individual, m Measurer, parallelism int) error {
	var todo []int
	var items []BatchItem
	for i := range pop {
		if !pop[i].measured {
			todo = append(todo, i)
			items = append(items, BatchItem{Seq: pop[i].Seq})
		}
	}
	if len(items) == 0 {
		return nil
	}
	results, err := measureBatch(m, items, parallelism)
	if err != nil {
		return err
	}
	if len(results) != len(items) {
		return fmt.Errorf("ga: batch measurer returned %d results for %d individuals",
			len(results), len(items))
	}
	for k, i := range todo {
		pop[i].Fitness, pop[i].DominantHz, pop[i].measured = results[k].Fitness, results[k].DominantHz, true
	}
	return nil
}

// measureBatch evaluates items through m's MeasureBatch when m is a
// BatchMeasurer (dedup, slab scratch; its contract pins the results to
// Measure's), otherwise as one Measure call per item on up to parallelism
// workers.
func measureBatch(m Measurer, items []BatchItem, parallelism int) ([]BatchResult, error) {
	if bm, ok := m.(BatchMeasurer); ok {
		return bm.MeasureBatch(items, parallelism)
	}
	results := make([]BatchResult, len(items))
	err := par.ForEach(parallelism, len(items), func(i int) error {
		fit, dom, err := m.Measure(items[i].Seq)
		results[i] = BatchResult{Fitness: fit, DominantHz: dom}
		return err
	})
	return results, err
}

func summarize(gen int, pop []Individual) GenerationStats {
	best := 0
	var sum float64
	for i := range pop {
		sum += pop[i].Fitness
		if pop[i].Fitness > pop[best].Fitness {
			best = i
		}
	}
	return GenerationStats{
		Gen:          gen,
		BestFitness:  pop[best].Fitness,
		MeanFitness:  sum / float64(len(pop)),
		BestDominant: pop[best].DominantHz,
		Best:         pop[best].clone(),
	}
}

// nextGeneration breeds a new population: elites survive unchanged, the
// rest are bred by tournament selection, one-point crossover and mutation.
// Elites, and children equal to a measured parent, keep their reading.
func nextGeneration(cfg Config, rng *rand.Rand, pop []Individual) []Individual {
	next := make([]Individual, 0, cfg.PopulationSize)
	for _, e := range elites(pop, cfg.Elites) {
		next = append(next, e.clone())
	}
	// Only the rank-based selection schemes need the sorted index; the
	// default tournament path draws directly from the population, so the
	// per-generation sort is skipped for it (rankIndices never touches the
	// rng, so laziness cannot shift any random draw).
	var ranked []int
	if cfg.Selection == Truncation || cfg.Selection == Roulette {
		ranked = rankIndices(pop)
	}
	for len(next) < cfg.PopulationSize {
		a := selectParent(cfg, rng, pop, ranked)
		b := selectParent(cfg, rng, pop, ranked)
		child := Individual{Seq: recombine(cfg, rng, a.Seq, b.Seq)}
		mutate(cfg, rng, child.Seq)
		next = append(next, child.inherit(a, b))
	}
	return next
}

// elites returns the n fittest individuals (n small; linear selection).
func elites(pop []Individual, n int) []Individual {
	if n == 0 {
		return nil
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: n is 1-3 in practice.
	for i := 0; i < n && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if pop[idx[j]].Fitness > pop[idx[best]].Fitness {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	out := make([]Individual, 0, n)
	for i := 0; i < n && i < len(idx); i++ {
		out = append(out, pop[idx[i]])
	}
	return out
}

// tournament picks k random individuals and returns the fittest.
func tournament(rng *rand.Rand, pop []Individual, k int) Individual {
	best := rng.Intn(len(pop))
	for i := 1; i < k; i++ {
		c := rng.Intn(len(pop))
		if pop[c].Fitness > pop[best].Fitness {
			best = c
		}
	}
	return pop[best]
}

// crossover performs one-point crossover between two parents.
func crossover(rng *rand.Rand, a, b []isa.Inst) []isa.Inst {
	child := make([]isa.Inst, len(a))
	point := rng.Intn(len(a) + 1)
	copy(child[:point], a[:point])
	copy(child[point:], b[point:])
	return child
}

// mutate applies per-gene mutation in place: with probability MutationRate
// a gene is either replaced by a fresh random instruction or has one
// operand rewritten (the paper mutates instructions and operands).
func mutate(cfg Config, rng *rand.Rand, seq []isa.Inst) {
	for i := range seq {
		if rng.Float64() >= cfg.MutationRate {
			continue
		}
		if rng.Intn(2) == 0 {
			seq[i] = cfg.Pool.RandomInst(rng)
		} else {
			cfg.Pool.MutateOperand(rng, &seq[i])
		}
	}
}
