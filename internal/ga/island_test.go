package ga

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

func islandConfig() IslandConfig {
	base := testConfig()
	base.Generations = 24
	return IslandConfig{
		Base:              base,
		Islands:           3,
		MigrationInterval: 6,
		Migrants:          2,
	}
}

func TestIslandConfigValidate(t *testing.T) {
	if err := islandConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*IslandConfig){
		func(c *IslandConfig) { c.Base.PopulationSize = 0 },
		func(c *IslandConfig) { c.Islands = 0 },
		func(c *IslandConfig) { c.MigrationInterval = 0 },
		func(c *IslandConfig) { c.Migrants = 0 },
		func(c *IslandConfig) { c.Migrants = 100 },
		func(c *IslandConfig) { c.Base.Generations = 2 },
	}
	for i, mut := range cases {
		cfg := islandConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunIslandsOptimizes(t *testing.T) {
	res, err := RunIslands(islandConfig(), MeasurerFunc(countSIMD), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness < 0.7 {
		t.Fatalf("island GA plateaued at %v", res.Best.Fitness)
	}
	if len(res.History) != 24 {
		t.Fatalf("history %d generations, want 24", len(res.History))
	}
	// Generation numbering is contiguous across migrations.
	for i, g := range res.History {
		if g.Gen != i {
			t.Fatalf("generation %d numbered %d", i, g.Gen)
		}
	}
	if len(res.FinalPopulation) != islandConfig().Base.PopulationSize {
		t.Fatalf("final population %d", len(res.FinalPopulation))
	}
}

func TestRunIslandsRejectsNilMeasurer(t *testing.T) {
	if _, err := RunIslands(islandConfig(), nil, nil); err == nil {
		t.Fatal("nil measurer accepted")
	}
}

func TestRunIslandsProgress(t *testing.T) {
	cfg := islandConfig()
	cfg.Base.Generations = 12
	cfg.MigrationInterval = 6
	seen := make(map[int]int)
	_, err := RunIslands(cfg, MeasurerFunc(countSIMD), func(s IslandStats) {
		seen[s.Island]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Islands; i++ {
		if seen[i] != 12 {
			t.Fatalf("island %d reported %d generations, want 12", i, seen[i])
		}
	}
}

// TestIslandsBreedEveryGeneration: every island breeds after each
// generation but the last, at any migration interval. At mutation rate 1
// every child differs from its parents, so a bred island enters its
// generation with unmeasured children; an island that was not bred is its
// last population again (plus migrants), every individual carried.
func TestIslandsBreedEveryGeneration(t *testing.T) {
	const gens = 6
	for _, interval := range []int{1, 2, gens} {
		cfg := islandConfig()
		cfg.Base.Generations = gens
		cfg.Base.MutationRate = 1
		cfg.MigrationInterval = interval
		// The hook sees each generation's islands in island order.
		seen := 0
		bred := make([]int, cfg.Islands)
		cfg.Base.observe = func(pop []Individual) {
			island, gen := seen%cfg.Islands, seen/cfg.Islands
			seen++
			if gen > 0 && slices.ContainsFunc(pop, func(in Individual) bool { return !in.measured }) {
				bred[island]++
			}
		}
		if _, err := RunIslands(cfg, MeasurerFunc(countSIMD), nil); err != nil {
			t.Fatal(err)
		}
		if seen != cfg.Islands*gens {
			t.Fatalf("interval %d: observed %d island generations, want %d", interval, seen, cfg.Islands*gens)
		}
		for i, n := range bred {
			if n != gens-1 {
				t.Errorf("interval %d: island %d bred %d times in %d generations, want %d", interval, i, n, gens, gens-1)
			}
		}
	}
}

func TestMigrateMovesBestReplacesWorst(t *testing.T) {
	pool := isa.ARM64Pool()
	mk := func(fit float64) Individual {
		return Individual{Seq: pool.RandomSequence(newTestRNG(int64(fit*100)), 4), Fitness: fit}
	}
	pops := [][]Individual{
		{mk(0.9), mk(0.1), mk(0.2)},
		{mk(0.5), mk(0.4), mk(0.3)},
	}
	migrate(pops, 1)
	// Island 1's worst (0.3) replaced by island 0's best (0.9).
	var has09 bool
	for _, ind := range pops[1] {
		if ind.Fitness == 0.9 {
			has09 = true
		}
		if ind.Fitness == 0.3 {
			t.Fatal("worst individual survived migration")
		}
	}
	if !has09 {
		t.Fatal("best emigrant missing from destination")
	}
	// Island 0's worst (0.1) replaced by island 1's best (0.5).
	var has05 bool
	for _, ind := range pops[0] {
		if ind.Fitness == 0.5 {
			has05 = true
		}
	}
	if !has05 {
		t.Fatal("ring migration into island 0 missing")
	}
}

// Island GA should do at least as well as a single population under the
// same total evaluation budget on the synthetic objective.
func TestIslandsCompetitiveWithSinglePopulation(t *testing.T) {
	single := testConfig()
	single.Generations = 24
	sres, err := Run(single, MeasurerFunc(countSIMD), nil)
	if err != nil {
		t.Fatal(err)
	}
	ires, err := RunIslands(islandConfig(), MeasurerFunc(countSIMD), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ires.Best.Fitness < sres.Best.Fitness-0.15 {
		t.Fatalf("islands (%v) clearly worse than single population (%v)",
			ires.Best.Fitness, sres.Best.Fitness)
	}
}

// newTestRNG is a helper for constructing deterministic sequences in tests.
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
