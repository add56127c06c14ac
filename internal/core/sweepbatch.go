package core

import (
	"fmt"

	"repro/internal/em"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/slab"
)

// SweepBatch evaluates a set of sweep clock steps as one batched campaign,
// bit-identical to one-clock batches per clock at any parallelism. The
// clock-invariant work is hoisted out of the per-point loop:
//
//   - the bench validates once and the probe loop builds once, not per point;
//   - the workload's cycle-domain trace is primed once, sized for the
//     largest snapped clock, and every point synthesizes from it;
//   - the whole grid band-prefilters in one loop-frequency pass, so
//     out-of-band steps never pay for resample + FFT + instruments;
//   - surviving points stream their spectra through per-worker slab arenas
//     (the MeasureBatch discipline), touching the heap only for the
//     returned SweepPoint values.
//
// points[i] corresponds to clocks[i] and stays nil when that step's loop
// frequency falls outside the search band. Callers shard this exact grid
// (internal/fleet) and reassemble with AssembleSweep; because every point
// is a pure function of its snapped clock, any shard layout reproduces the
// local result bit for bit.
func (b *Bench) SweepBatch(d *platform.Domain, activeCores int, clocks []float64) ([]*SweepPoint, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	points := make([]*SweepPoint, len(clocks))
	if len(clocks) == 0 {
		return points, nil
	}
	probe, err := b.cachedProbe(d)
	if err != nil {
		return nil, err
	}
	l := platform.Load{Seq: probe, ActiveCores: activeCores}

	snapped := make([]float64, len(clocks))
	var maxClock float64
	for i, hz := range clocks {
		snapped[i], err = d.SnapClock(hz)
		if err != nil {
			return nil, err
		}
		if snapped[i] > maxClock {
			maxClock = snapped[i]
		}
	}

	// Prime the clock-invariant trace once at the largest clock; every
	// other point's window is a covered prefix. A nil trace (priming
	// failed) just means each point falls back to its own sizing and
	// reproduces the scalar path's error.
	tr := d.PrimeTraceAt(l, b.Dt, b.N, maxClock)

	// Band-prefilter the whole grid in one loop-frequency pass. The sized
	// simulation is kept per point, so in-band survivors reuse it for the
	// spectra instead of sizing twice.
	evals := make([]platform.PointEval, len(snapped))
	err = par.ForEach(b.Parallelism, len(snapped), func(i int) error {
		pe, err := d.PreparePointAt(l, b.Dt, b.N, snapped[i], tr)
		if err != nil {
			return err
		}
		if pe.LoopHz <= 0 {
			return fmt.Errorf("core: probe loop frequency unresolved at %v Hz clock", snapped[i])
		}
		evals[i] = pe
		return nil
	})
	if err != nil {
		return nil, err
	}
	work := make([]int, 0, len(snapped))
	for i := range evals {
		if hz := evals[i].LoopHz; hz >= b.Band.Lo && hz <= b.Band.Hi {
			work = append(work, i)
		}
	}
	if len(work) == 0 {
		return points, nil
	}

	// One powered-core snapshot serves the whole batch, exactly as in
	// EMMeasureBatch: re-gating cores mid-sweep is outside the contract.
	supply, powered := d.SupplyVolts(), d.PoweredCores()

	st := b.batchSt()
	workers := par.Workers(b.Parallelism)
	if workers > len(work) {
		workers = len(work)
	}
	// One backing array for every in-band point: the campaign's only
	// per-point heap traffic is this single allocation.
	backing := make([]SweepPoint, len(work))
	arenas := make([]*slab.Arena, workers)
	for w := range arenas {
		arenas[w] = st.getArena()
	}
	binW := 1 / (float64(b.N) * b.Dt)
	halfBand := b.Analyzer.RBWHz + 2*binW
	err = par.ForEachWorker(workers, len(work), func(w, k int) error {
		i := work[k]
		ar := arenas[w]
		ar.Reset()
		pe := &evals[i]
		freqs, _, iAmp, err := pe.SpectraArena(supply, powered, ar)
		if err != nil {
			return err
		}
		watts := ar.FloatsUninit(len(freqs)) // CombineInto clears before folding
		if _, err := em.CombineInto(watts, b.Platform.Antenna, []em.Emitter{
			{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
		}); err != nil {
			return err
		}
		m, err := b.Analyzer.MeasurePeak(freqs, watts, pe.LoopHz-halfBand, pe.LoopHz+halfBand, b.Samples)
		if err != nil {
			return err
		}
		backing[k] = SweepPoint{ClockHz: snapped[i], LoopHz: pe.LoopHz, PeakDBm: m.PeakDBm}
		points[i] = &backing[k]
		return nil
	})
	for _, ar := range arenas {
		st.putArena(ar)
	}
	if err != nil {
		return nil, err
	}
	return points, nil
}
