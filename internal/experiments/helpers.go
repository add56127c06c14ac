package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// buildLoad constructs a named workload for a domain.
func buildLoad(d *platform.Domain, name string, cores int) (platform.Load, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return platform.Load{}, err
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		return platform.Load{}, err
	}
	return platform.Load{Seq: seq, ActiveCores: cores}, nil
}

// virusLoad wraps a generated virus as a platform load.
func (c *Context) virusLoad(name string) (*platform.Domain, platform.Load, error) {
	res, err := c.Virus(name)
	if err != nil {
		return nil, platform.Load{}, err
	}
	d, cores, err := c.VirusDomain(name)
	if err != nil {
		return nil, platform.Load{}, err
	}
	return d, platform.Load{Seq: res.Best.Seq, ActiveCores: cores}, nil
}

// vminRow is one bar of a V_MIN figure.
type vminRow struct {
	Name   string
	VminV  float64
	DroopV float64
	Kind   vmin.FailureKind
}

// vminCampaign measures V_MIN and nominal droop for a set of loads on one
// domain through its backend. Viruses are repeated per the paper (worst
// of N); plain benchmarks get a single search. The trial RNG is keyed by
// seed and operating point, so per-load backend calls reproduce the old
// shared-tester results exactly. On a fleet, each repeats class becomes
// one sharded campaign instead of per-load serial calls.
func (c *Context) vminCampaign(be backend.Backend, domain string, loads map[string]platform.Load,
	virusNames map[string]bool, order []string) ([]vminRow, error) {
	repeatsOf := make([]int, len(order))
	loadOf := make([]platform.Load, len(order))
	for i, name := range order {
		l, ok := loads[name]
		if !ok {
			return nil, fmt.Errorf("experiments: no load %q in campaign", name)
		}
		loadOf[i] = l
		repeatsOf[i] = 1
		if virusNames[name] {
			repeatsOf[i] = c.vminRepeats()
		}
	}
	results := make([]*vmin.Result, len(order))
	if f, ok := be.(*fleet.Fleet); ok {
		done := make([]bool, len(order))
		for i := range order {
			if done[i] {
				continue
			}
			var idxs []int
			var group []platform.Load
			for j := i; j < len(order); j++ {
				if !done[j] && repeatsOf[j] == repeatsOf[i] {
					done[j] = true
					idxs = append(idxs, j)
					group = append(group, loadOf[j])
				}
			}
			rs, _, err := f.VminMany(domain, group, 0, c.Opts.Seed+30, repeatsOf[i])
			if err != nil {
				return nil, fmt.Errorf("experiments: vmin campaign: %w", err)
			}
			for k, j := range idxs {
				results[j] = rs[k]
			}
		}
	} else {
		for i, name := range order {
			res, _, err := be.Vmin(domain, loadOf[i], 0, c.Opts.Seed+30, repeatsOf[i])
			if err != nil {
				return nil, fmt.Errorf("experiments: vmin of %q: %w", name, err)
			}
			results[i] = res
		}
	}
	rows := make([]vminRow, len(order))
	for i, name := range order {
		res := results[i]
		rows[i] = vminRow{Name: name, VminV: res.VminV, DroopV: res.DroopNominalV, Kind: res.Outcome}
	}
	return rows, nil
}

// gaSeries extracts the per-generation best-amplitude and dominant
// frequency series from a GA history.
func gaSeries(res *ga.Result) (gens, bestDBm, domMHz []float64) {
	for _, g := range res.History {
		gens = append(gens, float64(g.Gen))
		bestDBm = append(bestDBm, g.BestFitness)
		domMHz = append(domMHz, g.BestDominant/1e6)
	}
	return gens, bestDBm, domMHz
}

// mixPct renders an instruction-class share for Table 2.
func mixPct(mix map[isa.Class]float64, classes ...isa.Class) string {
	var total float64
	for _, cl := range classes {
		total += mix[cl]
	}
	return fmt.Sprintf("%.0f%%", total*100)
}
