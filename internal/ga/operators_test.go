package ga

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestSelectionAndCrossoverStrings(t *testing.T) {
	cases := map[string]string{
		Tournament.String():    "tournament",
		Truncation.String():    "truncation",
		Roulette.String():      "roulette",
		OnePoint.String():      "one-point",
		TwoPoint.String():      "two-point",
		Uniform.String():       "uniform",
		Selection(99).String(): "selection(99)",
		Crossover(99).String(): "crossover(99)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestConfigRejectsUnknownOperators(t *testing.T) {
	cfg := DefaultConfig(isa.ARM64Pool())
	cfg.Selection = Selection(9)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown selection accepted")
	}
	cfg = DefaultConfig(isa.ARM64Pool())
	cfg.Crossover = Crossover(9)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown crossover accepted")
	}
}

func TestRankIndices(t *testing.T) {
	pop := []Individual{{Fitness: 2}, {Fitness: 9}, {Fitness: 5}}
	ranked := rankIndices(pop)
	if ranked[0] != 1 || ranked[1] != 2 || ranked[2] != 0 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestAllOperatorCombinationsOptimize(t *testing.T) {
	for _, sel := range []Selection{Tournament, Truncation, Roulette} {
		for _, cx := range []Crossover{OnePoint, TwoPoint, Uniform} {
			name := sel.String() + "/" + cx.String()
			t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
				cfg := testConfig()
				cfg.Selection = sel
				cfg.Crossover = cx
				res, err := Run(cfg, MeasurerFunc(countSIMD), nil)
				if err != nil {
					t.Fatal(err)
				}
				first := res.History[0].BestFitness
				last := res.History[len(res.History)-1].BestFitness
				if last <= first {
					t.Errorf("%s did not improve: %v -> %v", name, first, last)
				}
			})
		}
	}
}

// Property: every crossover scheme produces children whose genes come from
// one of the two parents, preserving length.
func TestRecombineGenesFromParentsProperty(t *testing.T) {
	pool := isa.ARM64Pool()
	prop := func(seed int64, scheme uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := pool.RandomSequence(rng, n)
		b := pool.RandomSequence(rng, n)
		cfg := DefaultConfig(pool)
		cfg.Crossover = Crossover(int(scheme) % 3)
		child := recombine(cfg, rng, a, b)
		if len(child) != n {
			return false
		}
		for i := range child {
			if child[i] != a[i] && child[i] != b[i] {
				return false
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}
}

// Property: selection always returns a member of the population, and
// truncation never returns one from the bottom half.
func TestSelectParentProperty(t *testing.T) {
	pool := isa.ARM64Pool()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		pop := make([]Individual, n)
		for i := range pop {
			pop[i] = Individual{
				Seq:     pool.RandomSequence(rng, 5),
				Fitness: rng.Float64(),
			}
		}
		ranked := rankIndices(pop)
		for _, sel := range []Selection{Tournament, Truncation, Roulette} {
			cfg := DefaultConfig(pool)
			cfg.Selection = sel
			seq := selectParent(cfg, rng, pop, ranked).Seq
			found := -1
			for i := range pop {
				if &pop[i].Seq[0] == &seq[0] {
					found = i
					break
				}
			}
			if found < 0 {
				return false
			}
			if sel == Truncation {
				// Must be in the top quarter by fitness.
				rank := -1
				for r, idx := range ranked {
					if idx == found {
						rank = r
						break
					}
				}
				top := len(ranked) / 4
				if top < 1 {
					top = 1
				}
				if rank >= top {
					return false
				}
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}
}
