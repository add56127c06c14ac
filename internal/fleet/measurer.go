package fleet

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/detrand"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
)

// fleetMeasurer shards GA fitness evaluation across the fleet. Each
// individual is one campaign item keyed by its load content hash (the same
// key the rig-side batch dedups by), deduplicated before placement so
// identical post-mutation children cost one measurement fleet-wide. Local
// and Remote rigs build a ga.BatchMeasurer for every metric, em, droop and
// ptp alike, so a generation on a single slot goes to its rig in one call:
// over a Remote, one MEASURE per session.
type fleetMeasurer struct {
	f    *Fleet
	spec backend.MeasurerSpec
	ms   map[*rig]ga.Measurer
}

// Measurer builds the fleet's GA fitness function. Capability is checked
// per rig at construction: a droop/ptp request on a voltage-blind domain
// fails here with the rig's own *backend.CapabilityError (the fleet never
// routes such shards), and a rig that cannot even answer is condemned
// rather than fatal.
func (f *Fleet) Measurer(spec backend.MeasurerSpec) (ga.Measurer, error) {
	var err error
	if spec.PoweredCores, err = f.powered(spec.Domain, spec.PoweredCores); err != nil {
		return nil, err
	}
	ms := make(map[*rig]ga.Measurer, len(f.rigs))
	var lastErr error
	for _, r := range f.rigs {
		if r.dead.Load() {
			continue
		}
		m, err := r.be.Measurer(spec)
		if err != nil {
			if isDeterministicError(err) {
				return nil, err
			}
			r.failed.Add(1)
			if !r.dead.Swap(true) {
				f.failovers.Add(1)
			}
			lastErr = err
			continue
		}
		ms[r] = m
	}
	if len(ms) == 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("fleet: no rig could build a measurer: %w", lastErr)
		}
		return nil, fmt.Errorf("fleet: no live rigs")
	}
	return &fleetMeasurer{f: f, spec: spec, ms: ms}, nil
}

// Measure evaluates one sequence through the batch path, so the scalar GA
// driver inherits failover and checkpoint replay unchanged.
func (m *fleetMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	res, err := m.MeasureBatch([]ga.BatchItem{{Seq: seq}}, 1)
	if err != nil {
		return 0, 0, err
	}
	return res[0].Fitness, res[0].DominantHz, nil
}

// MeasureBatch evaluates a whole generation as one campaign: dedup by
// content, shard across rigs, merge by index. Identical to a single
// backend's MeasureBatch bit-for-bit at any rig count, slot count or
// steal schedule.
func (m *fleetMeasurer) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	key := m.f.keyHash("ga", func(h *detrand.Hash) {
		h.String(m.spec.Domain)
		h.String(string(m.spec.Metric))
		h.Int(m.spec.ActiveCores)
		h.Int(m.spec.Samples)
		h.Uint64(uint64(m.spec.DSOSeed))
		h.Int(m.spec.PoweredCores)
	})

	// Dedup identical children: one shard per distinct sequence, every
	// duplicate index fans the shared result back out.
	hashes := make([]uint64, len(items))
	uniqOf := make(map[uint64]int, len(items))
	var uniq []int
	for i, it := range items {
		load := platform.Load{Seq: it.Seq, ActiveCores: m.spec.ActiveCores}
		hashes[i] = load.Hash()
		if _, ok := uniqOf[hashes[i]]; !ok {
			uniqOf[hashes[i]] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	campaignItems := make([]uint64, len(uniq))
	for k, i := range uniq {
		campaignItems[k] = hashes[i]
	}

	c := &campaign[ga.BatchResult]{
		kind:     "ga",
		key:      key,
		items:    campaignItems,
		slots:    parallelism,
		eligible: func(r *rig) bool { return m.ms[r] != nil },
		run: func(r *rig, k int) (ga.BatchResult, error) {
			fit, hz, err := m.ms[r].Measure(items[uniq[k]].Seq)
			if err != nil {
				return ga.BatchResult{}, err
			}
			return ga.BatchResult{Fitness: fit, DominantHz: hz}, nil
		},
		batch: func(r *rig) func([]int) ([]ga.BatchResult, error) {
			bm, ok := m.ms[r].(ga.BatchMeasurer)
			if !ok {
				return nil
			}
			return func(ks []int) ([]ga.BatchResult, error) {
				chunk := make([]ga.BatchItem, len(ks))
				for j, k := range ks {
					chunk[j] = items[uniq[k]]
				}
				return bm.MeasureBatch(chunk, 1)
			}
		},
	}
	uniqRes, err := runCampaign(m.f, c)
	if err != nil {
		return nil, err
	}
	out := make([]ga.BatchResult, len(items))
	for i := range items {
		out[i] = uniqRes[uniqOf[hashes[i]]]
	}
	return out, nil
}
