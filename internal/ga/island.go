package ga

import (
	"fmt"
	"math/rand"
	"sort"
)

// IslandConfig runs several semi-isolated populations ("islands") that
// periodically exchange their best individuals around a ring. Island models
// resist premature convergence: each island explores its own niche of the
// instruction space and migration spreads only proven genes. The paper
// seeds GA runs from previous populations (Section 3.1); islands generalize
// that into a standing topology.
type IslandConfig struct {
	// Base is the per-island GA configuration; Base.Generations is the
	// number of generations every island runs.
	Base Config
	// Islands is the number of populations (>= 1; one island is Run).
	Islands int
	// MigrationInterval is how many generations each island evolves
	// between migrations.
	MigrationInterval int
	// Migrants is how many top individuals each island sends to its ring
	// neighbour per migration.
	Migrants int
}

// Validate reports the first problem with the configuration.
func (c IslandConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	switch {
	case c.Islands < 1:
		return fmt.Errorf("ga: island model needs >= 1 island, got %d", c.Islands)
	case c.MigrationInterval < 1:
		return fmt.Errorf("ga: migration interval %d", c.MigrationInterval)
	case c.Migrants < 1 || c.Migrants >= c.Base.PopulationSize:
		return fmt.Errorf("ga: %d migrants with population %d", c.Migrants, c.Base.PopulationSize)
	case c.Base.Generations < c.MigrationInterval:
		return fmt.Errorf("ga: generation budget %d below one migration interval %d",
			c.Base.Generations, c.MigrationInterval)
	}
	return nil
}

// IslandStats reports one island's statistics for one generation.
type IslandStats struct {
	Island int
	GenerationStats
}

// RunIslands evolves the islands side by side, one generation at a time.
// Each generation measures every island's unmeasured individuals in one
// batch, reports each island's statistics in island order, migrates every
// MigrationInterval generations (never after the last) and breeds every
// island with its own RNG: island 0 draws from Base.Seed, so one island is
// exactly Run. The Result is the island holding the best individual seen
// (the lowest such island on a tie): its best, history and final
// population.
func RunIslands(cfg IslandConfig, m Measurer, progress func(IslandStats)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("ga: nil measurer")
	}
	base, size := cfg.Base, cfg.Base.PopulationSize
	rngs := make([]*rand.Rand, cfg.Islands)
	pop := make([]Individual, 0, cfg.Islands*size)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(base.Seed + int64(i)*7919))
		pop = append(pop, initialPopulation(base, rngs[i])...)
	}
	// The islands are slices of one population, so one batch measures them
	// all; migration and breeding write back in place.
	islands := make([][]Individual, cfg.Islands)
	for i := range islands {
		islands[i] = pop[i*size : (i+1)*size]
	}
	histories := make([][]GenerationStats, cfg.Islands)
	bests := make([]Individual, cfg.Islands)
	for gen := 0; gen < base.Generations; gen++ {
		if base.observe != nil {
			for _, isl := range islands {
				base.observe(isl)
			}
		}
		if err := measureAll(pop, m, base.Parallelism); err != nil {
			return nil, fmt.Errorf("ga: generation %d: %w", gen, err)
		}
		for i, isl := range islands {
			stats := summarize(gen, isl)
			histories[i] = append(histories[i], stats)
			if stats.Best.Fitness >= bests[i].Fitness || gen == 0 {
				bests[i] = stats.Best.clone()
			}
			if progress != nil {
				progress(IslandStats{Island: i, GenerationStats: stats})
			}
		}
		if gen == base.Generations-1 {
			break
		}
		if (gen+1)%cfg.MigrationInterval == 0 {
			migrate(islands, cfg.Migrants)
		}
		for i, isl := range islands {
			copy(isl, nextGeneration(base, rngs[i], isl))
		}
	}
	win := 0
	for i := range bests {
		if bests[i].Fitness > bests[win].Fitness {
			win = i
		}
	}
	final := make([]Individual, size)
	for i := range final {
		final[i] = islands[win][i].clone()
	}
	return &Result{Best: bests[win], History: histories[win], FinalPopulation: final}, nil
}

// migrate sends each island's top Migrants to the next island in the ring,
// replacing that island's worst individuals. A ring of one has no
// neighbour, so a single island is left as it is.
func migrate(pops [][]Individual, migrants int) {
	n := len(pops)
	if n < 2 {
		return
	}
	// Collect emigrants first so a chain of migrations in one round does
	// not relay an individual across multiple islands.
	emigrants := make([][]Individual, n)
	for i, pop := range pops {
		sorted := make([]Individual, len(pop))
		copy(sorted, pop)
		sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Fitness > sorted[b].Fitness })
		k := migrants
		if k > len(sorted) {
			k = len(sorted)
		}
		emigrants[i] = make([]Individual, 0, k)
		for _, e := range sorted[:k] {
			emigrants[i] = append(emigrants[i], e.clone())
		}
	}
	for i := range pops {
		dst := (i + 1) % n
		pop := pops[dst]
		// Replace the worst of dst with i's emigrants.
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].Fitness > pop[b].Fitness })
		for j, e := range emigrants[i] {
			pop[len(pop)-1-j] = e
		}
	}
}
