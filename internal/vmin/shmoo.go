package vmin

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/slab"
)

// ShmooPoint is one operating point of a frequency/voltage shmoo.
type ShmooPoint struct {
	ClockHz float64
	VminV   float64
	MarginV float64
	Outcome FailureKind
}

// Shmoo runs a V_MIN search at each of the given clock settings, producing
// the classic post-silicon shmoo curve: the frequency/voltage boundary of
// stable operation for one workload. The campaign is batched: the
// workload's clock-invariant trace primes once (sized for the largest
// snapped clock; every other column reads a covered prefix), requested
// clocks that snap onto the same DVFS step dedup to one search, and each
// distinct column descends a supply ladder whose invariant state lives in
// a per-worker slab arena. The domain's clock setting is never touched and
// points are collected in input order, so serial, parallel and
// fleet-sharded shmoos are identical.
func (t *Tester) Shmoo(load platform.Load, clocks []float64) ([]ShmooPoint, error) {
	if len(clocks) == 0 {
		return nil, fmt.Errorf("vmin: shmoo needs at least one clock setting")
	}
	snapped := make([]float64, len(clocks))
	for i, clock := range clocks {
		c, err := t.Domain.SnapClock(clock)
		if err != nil {
			return nil, err
		}
		snapped[i] = c
	}
	// A grid denser than the DVFS lattice snaps neighbouring requests onto
	// the same step; the search outcome is a pure function of the snapped
	// clock (the jitter stream is content-keyed, never index-keyed), so
	// each distinct column runs once and fans out to every requester.
	colOf := make([]int, len(snapped))
	firstCol := make(map[float64]int, len(snapped))
	var uniq []float64
	var maxClock float64
	for i, c := range snapped {
		j, ok := firstCol[c]
		if !ok {
			j = len(uniq)
			firstCol[c] = j
			uniq = append(uniq, c)
			if c > maxClock {
				maxClock = c
			}
		}
		colOf[i] = j
	}

	tr := t.Domain.PrimeTraceAt(load, t.Dt, t.N, maxClock)

	// The parallelism setting resolves exactly once (ForEachWorker takes a
	// literal worker count), clamped to the deduped column count.
	workers := par.Workers(t.Parallelism)
	if workers > len(uniq) {
		workers = len(uniq)
	}
	arenas := make([]*slab.Arena, workers)
	for w := range arenas {
		arenas[w] = getArena()
	}
	cols := make([]ShmooPoint, len(uniq))
	err := par.ForEachWorker(workers, len(uniq), func(w, i int) error {
		ar := arenas[w]
		ar.Reset()
		res, err := t.searchLadder(load, uniq[i], 0, tr, ar)
		if err != nil {
			return fmt.Errorf("vmin: shmoo at %v Hz: %w", uniq[i], err)
		}
		cols[i] = ShmooPoint{
			ClockHz: uniq[i],
			VminV:   res.VminV,
			MarginV: res.MarginV,
			Outcome: res.Outcome,
		}
		return nil
	})
	for _, ar := range arenas {
		putArena(ar)
	}
	if err != nil {
		return nil, err
	}
	out := make([]ShmooPoint, len(snapped))
	for i := range snapped {
		out[i] = cols[colOf[i]]
	}
	return out, nil
}
