package ga

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/isa"
)

// Selection chooses how parents are picked. The paper uses tournament
// selection; truncation and roulette are provided for the operator
// ablations.
type Selection int

// Selection schemes.
const (
	// Tournament picks the fittest of TournamentSize random individuals.
	Tournament Selection = iota
	// Truncation picks uniformly among the top quarter of the population.
	Truncation
	// Roulette picks with probability proportional to rank (rank-based
	// roulette avoids fitness-scale problems with dBm values).
	Roulette
)

// String returns the scheme name.
func (s Selection) String() string {
	switch s {
	case Tournament:
		return "tournament"
	case Truncation:
		return "truncation"
	case Roulette:
		return "roulette"
	default:
		return fmt.Sprintf("selection(%d)", int(s))
	}
}

// Crossover chooses how two parents recombine. The paper uses one-point
// crossover.
type Crossover int

// Crossover schemes.
const (
	// OnePoint splits both parents at one random point.
	OnePoint Crossover = iota
	// TwoPoint exchanges a random middle segment.
	TwoPoint
	// Uniform picks each gene from a random parent.
	Uniform
)

// String returns the scheme name.
func (c Crossover) String() string {
	switch c {
	case OnePoint:
		return "one-point"
	case TwoPoint:
		return "two-point"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("crossover(%d)", int(c))
	}
}

// selectParent applies the configured selection scheme.
func selectParent(cfg Config, rng *rand.Rand, pop []Individual, ranked []int) Individual {
	switch cfg.Selection {
	case Truncation:
		top := len(ranked) / 4
		if top < 1 {
			top = 1
		}
		return pop[ranked[rng.Intn(top)]]
	case Roulette:
		// Rank-based: weight n for the best, 1 for the worst.
		n := len(ranked)
		total := n * (n + 1) / 2
		pick := rng.Intn(total)
		acc := 0
		for i, idx := range ranked {
			acc += n - i
			if pick < acc {
				return pop[idx]
			}
		}
		return pop[ranked[n-1]]
	default:
		return tournament(rng, pop, cfg.TournamentSize)
	}
}

// rankIndices returns population indices sorted by descending fitness.
func rankIndices(pop []Individual) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pop[idx[a]].Fitness > pop[idx[b]].Fitness
	})
	return idx
}

// recombine applies the configured crossover scheme.
func recombine(cfg Config, rng *rand.Rand, a, b []isa.Inst) []isa.Inst {
	child := make([]isa.Inst, len(a))
	switch cfg.Crossover {
	case TwoPoint:
		p1 := rng.Intn(len(a) + 1)
		p2 := rng.Intn(len(a) + 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		copy(child, a)
		copy(child[p1:p2], b[p1:p2])
	case Uniform:
		for i := range child {
			if rng.Intn(2) == 0 {
				child[i] = a[i]
			} else {
				child[i] = b[i]
			}
		}
	default:
		return crossover(rng, a, b)
	}
	return child
}
