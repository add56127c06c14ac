package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// sweepShard is one fast-sweep grid point in checkpoint/JSON form. A nil
// core.SweepPoint (probe loop out of band at that clock) journals as
// InBand=false, so out-of-band points replay without re-measurement too.
type sweepShard struct {
	InBand  bool    `json:"in_band"`
	ClockHz float64 `json:"clock_hz,omitempty"`
	LoopHz  float64 `json:"loop_hz,omitempty"`
	PeakDBm float64 `json:"peak_dbm,omitempty"`
}

// Sweep measures fast-sweep points with the given clocks sharded across
// the fleet: each clock is one campaign item, measured on whichever rig
// gets to it first as a one-clock Sweep, and merged in input order. Every
// point is the same pure function of its snapped clock on any rig and in
// any batch, so backend.ResonanceSweep over a fleet is bit-identical to a
// single-rig sweep.
func (f *Fleet) Sweep(domain string, activeCores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	powered, err := f.powered(domain, powered)
	if err != nil {
		return nil, err
	}
	key := f.keyHash("sweep", func(h *detrand.Hash) {
		h.String(domain)
		h.Int(activeCores)
		h.Int(samples)
		h.Int(powered)
	})
	items := make([]uint64, len(clocks))
	for i, clock := range clocks {
		h := detrand.NewHash()
		h.Float64(clock)
		items[i] = h.Sum()
	}

	c := &campaign[sweepShard]{
		kind:  "sweep",
		key:   key,
		items: items,
		run: func(r *rig, i int) (sweepShard, error) {
			pts, err := r.be.Sweep(domain, activeCores, powered, samples, clocks[i:i+1])
			if err != nil {
				return sweepShard{}, err
			}
			pt := pts[0]
			if pt == nil {
				return sweepShard{}, nil
			}
			return sweepShard{InBand: true, ClockHz: pt.ClockHz, LoopHz: pt.LoopHz, PeakDBm: pt.PeakDBm}, nil
		},
	}
	shards, err := runCampaign(f, c)
	if err != nil {
		return nil, err
	}
	points := make([]*core.SweepPoint, len(shards))
	for i, sh := range shards {
		if sh.InBand {
			points[i] = &core.SweepPoint{ClockHz: sh.ClockHz, LoopHz: sh.LoopHz, PeakDBm: sh.PeakDBm}
		}
	}
	return points, nil
}

// vminShard is one V_MIN search result in checkpoint/JSON form.
type vminShard struct {
	VminV         float64          `json:"vmin_v"`
	Outcome       vmin.FailureKind `json:"outcome"`
	MarginV       float64          `json:"margin_v"`
	DroopNominalV float64          `json:"droop_nominal_v"`
	Runs          []float64        `json:"runs"`
}

func (s vminShard) result() (*vmin.Result, []float64) {
	return &vmin.Result{
		VminV:         s.VminV,
		Outcome:       s.Outcome,
		MarginV:       s.MarginV,
		DroopNominalV: s.DroopNominalV,
	}, s.Runs
}

// Vmin runs one repeated V_MIN search as a single-item campaign: it lands
// on one rig, but inherits failover and checkpoint replay.
func (f *Fleet) Vmin(domain string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error) {
	res, err := f.vminMany("vmin", domain, []platform.Load{load}, powered, seed, repeats)
	if err != nil {
		return nil, nil, err
	}
	r, runs := res[0].result()
	return r, runs, nil
}

// VminMany runs an independent V_MIN search per workload, with powered
// cores powered (0 = every core), sharded across the fleet. Results are
// index-aligned with loads.
func (f *Fleet) VminMany(domain string, loads []platform.Load, powered int, seed int64, repeats int) ([]*vmin.Result, [][]float64, error) {
	shards, err := f.vminMany("vmin", domain, loads, powered, seed, repeats)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*vmin.Result, len(shards))
	runs := make([][]float64, len(shards))
	for i, sh := range shards {
		results[i], runs[i] = sh.result()
	}
	return results, runs, nil
}

func (f *Fleet) vminMany(kind, domain string, loads []platform.Load, powered int, seed int64, repeats int) ([]vminShard, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("fleet: no workloads")
	}
	powered, err := f.powered(domain, powered)
	if err != nil {
		return nil, err
	}
	key := f.keyHash(kind, func(h *detrand.Hash) {
		h.String(domain)
		h.Uint64(uint64(seed))
		h.Int(repeats)
		h.Int(powered)
	})
	items := make([]uint64, len(loads))
	for i, l := range loads {
		items[i] = l.Hash()
	}
	c := &campaign[vminShard]{
		kind:  kind,
		key:   key,
		items: items,
		run: func(r *rig, i int) (vminShard, error) {
			res, runs, err := r.be.Vmin(domain, loads[i], powered, seed, repeats)
			if err != nil {
				return vminShard{}, err
			}
			return vminShard{
				VminV:         res.VminV,
				Outcome:       res.Outcome,
				MarginV:       res.MarginV,
				DroopNominalV: res.DroopNominalV,
				Runs:          runs,
			}, nil
		},
	}
	return runCampaign(f, c)
}

// shmooShard is one shmoo lattice point in checkpoint/JSON form.
type shmooShard struct {
	ClockHz float64          `json:"clock_hz"`
	VminV   float64          `json:"vmin_v"`
	MarginV float64          `json:"margin_v"`
	Outcome vmin.FailureKind `json:"outcome"`
}

// VminShmoo traces the frequency/voltage boundary with the clock axis
// sharded across the fleet: each clock is one campaign item (a shmoo
// point's search is independent of its neighbours — same trial nonce,
// same jitter stream — so single-clock shards are exactly the lattice
// columns), merged in input order.
func (f *Fleet) VminShmoo(domain string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	grid, err := f.ShmooGrid(domain, []platform.Load{load}, powered, seed, clocks)
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// ShmooGrid shards a full workloads × clocks shmoo lattice, with powered
// cores powered (0 = every core), across the fleet, one campaign item per
// (load, clock) cell. The result is index-aligned: grid[i][j] is loads[i]
// at clocks[j].
func (f *Fleet) ShmooGrid(domain string, loads []platform.Load, powered int, seed int64, clocks []float64) ([][]vmin.ShmooPoint, error) {
	if len(loads) == 0 || len(clocks) == 0 {
		return nil, fmt.Errorf("fleet: shmoo needs at least one workload and one clock")
	}
	powered, err := f.powered(domain, powered)
	if err != nil {
		return nil, err
	}
	key := f.keyHash("shmoo", func(h *detrand.Hash) {
		h.String(domain)
		h.Uint64(uint64(seed))
		h.Int(powered)
	})
	type cell struct {
		load  platform.Load
		clock float64
	}
	cells := make([]cell, 0, len(loads)*len(clocks))
	items := make([]uint64, 0, len(loads)*len(clocks))
	for _, l := range loads {
		lh := l.Hash()
		for _, clk := range clocks {
			cells = append(cells, cell{load: l, clock: clk})
			h := detrand.NewHash()
			h.Uint64(lh)
			h.Float64(clk)
			items = append(items, h.Sum())
		}
	}
	c := &campaign[shmooShard]{
		kind:  "shmoo",
		key:   key,
		items: items,
		run: func(r *rig, i int) (shmooShard, error) {
			pts, err := r.be.VminShmoo(domain, cells[i].load, powered, seed, []float64{cells[i].clock})
			if err != nil {
				return shmooShard{}, err
			}
			p := pts[0]
			return shmooShard{ClockHz: p.ClockHz, VminV: p.VminV, MarginV: p.MarginV, Outcome: p.Outcome}, nil
		},
	}
	shards, err := runCampaign(f, c)
	if err != nil {
		return nil, err
	}
	grid := make([][]vmin.ShmooPoint, len(loads))
	for i := range loads {
		row := make([]vmin.ShmooPoint, len(clocks))
		for j := range clocks {
			sh := shards[i*len(clocks)+j]
			row[j] = vmin.ShmooPoint{ClockHz: sh.ClockHz, VminV: sh.VminV, MarginV: sh.MarginV, Outcome: sh.Outcome}
		}
		grid[i] = row
	}
	return grid, nil
}
