package ga

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/par"
)

// IslandConfig runs several semi-isolated populations ("islands") that
// periodically exchange their best individuals around a ring. Island models
// resist premature convergence: each island explores its own niche of the
// instruction space and migration spreads only proven genes. The paper
// seeds GA runs from previous populations (Section 3.1); islands generalize
// that into a standing topology.
type IslandConfig struct {
	// Base is the per-island GA configuration; Base.Generations is the
	// total generation budget per island across all epochs.
	Base Config
	// Islands is the number of populations (>= 2).
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
	case c.Islands < 2:
		return fmt.Errorf("ga: island model needs >= 2 islands, got %d", c.Islands)
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

// IslandStats reports one island's progress for one epoch.
type IslandStats struct {
	Island int
	GenerationStats
}

// RunIslands evolves the islands in round-robin epochs with ring migration
// and returns the globally best individual plus the winning island's
// history.
func RunIslands(cfg IslandConfig, m Measurer, progress func(IslandStats)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("ga: nil measurer")
	}
	epochs := cfg.Base.Generations / cfg.MigrationInterval

	pops := make([][]Individual, cfg.Islands)
	histories := make([][]GenerationStats, cfg.Islands)
	genOffset := 0

	// Islands within an epoch are independent until migration, so run them
	// concurrently. The parallelism budget is split: up to Islands workers
	// run whole islands, and any surplus parallelizes fitness evaluation
	// inside each island. Results land in per-island slots and progress is
	// emitted after the epoch in island order, so callbacks and Results are
	// identical to the serial schedule.
	islandWorkers := par.Workers(cfg.Base.Parallelism)
	if islandWorkers > cfg.Islands {
		islandWorkers = cfg.Islands
	}
	innerParallelism := 1
	if islandWorkers > 0 {
		innerParallelism = par.Workers(cfg.Base.Parallelism) / islandWorkers
	}
	if innerParallelism < 1 {
		innerParallelism = 1
	}
	if cfg.Base.Parallelism <= 1 {
		// An explicitly serial config stays serial all the way down.
		islandWorkers, innerParallelism = 1, 1
	}

	for epoch := 0; epoch < epochs; epoch++ {
		results := make([]*Result, cfg.Islands)
		err := par.ForEach(islandWorkers, cfg.Islands, func(i int) error {
			sub := cfg.Base
			sub.Generations = cfg.MigrationInterval
			sub.Parallelism = innerParallelism
			// Decorrelate the islands' random streams per epoch.
			sub.Seed = cfg.Base.Seed + int64(epoch*cfg.Islands+i+1)*7919
			rng := rand.New(rand.NewSource(sub.Seed))
			// An island resumes from its measured population, migrants
			// included; only the first epoch draws one.
			pop := pops[i]
			if pop == nil {
				pop = initialPopulation(sub, rng)
			}
			res, err := evolve(sub, rng, m, pop, nil)
			if err != nil {
				return fmt.Errorf("ga: island %d epoch %d: %w", i, epoch, err)
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			pops[i] = res.FinalPopulation
			for _, g := range res.History {
				g.Gen += genOffset
				histories[i] = append(histories[i], g)
				if progress != nil {
					progress(IslandStats{Island: i, GenerationStats: g})
				}
			}
		}
		genOffset += cfg.MigrationInterval
		if epoch < epochs-1 {
			migrate(pops, cfg.Migrants)
		}
	}

	// Pick the best across islands.
	bestIsland, best := 0, Individual{}
	for i, pop := range pops {
		for _, ind := range pop {
			if best.Seq == nil || ind.Fitness > best.Fitness {
				best = ind.clone()
				bestIsland = i
			}
		}
	}
	return &Result{
		Best:            best,
		History:         histories[bestIsland],
		FinalPopulation: pops[bestIsland],
	}, nil
}

// migrate sends each island's top Migrants to the next island in the ring,
// replacing that island's worst individuals.
func migrate(pops [][]Individual, migrants int) {
	n := len(pops)
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
