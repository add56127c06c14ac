package platform

// Batched operating-point evaluation.
//
// A sweep, shmoo or V_MIN campaign holds the workload fixed and walks a
// grid of (clock, supply) operating points. Most of the per-point cost is
// clock-invariant (the cycle-domain simulation) or supply-invariant (the
// resampled base waveform, the PDN transfer set), so the campaign paths
// here hoist each invariant to the widest scope it holds at:
//
//   - PrimeTraceAt simulates the workload once, sized for the campaign's
//     largest clock; every point's sizing then synthesizes from the primed
//     history (uarch.Trace), bit-identically to per-point simulation.
//   - PreparePointAt sizes one point and carries the simulation, so the
//     loop-frequency band prefilter and the spectra evaluation of a sweep
//     point share it instead of sizing twice.
//   - LadderAt freezes one (load, clock) column of a V_MIN campaign:
//     the supply-invariant base waveform and transfer set are computed
//     once and each supply step pays only the scale + FFT remainder,
//     memoized per supply (the response is a pure function of the
//     operating point, so repeated trials of a Repeat campaign dedup).
//
// All transient rows live in caller-owned slab arenas (one per batch
// worker; see internal/slab lifetime rules) and are never retained past the
// item. Every path reproduces the scalar arithmetic
// operation for operation, which the platform/core/vmin property tests pin.

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// clusterLoad is the power-layer view of a load at an explicit clock — the
// single construction point shared by the scalar and batched paths.
func (d *Domain) clusterLoad(l Load, clockHz float64) power.ClusterLoad {
	return power.ClusterLoad{
		Core:        d.Spec.Core,
		Seq:         l.Seq,
		ClockHz:     clockHz,
		ActiveCores: l.ActiveCores,
		PhaseCycles: l.PhaseCycles,
	}
}

// PrimeTraceAt simulates the load's clock-invariant trace once, sized for
// a campaign's largest (snapped) clock, and returns the handle every
// operating point of the campaign draws from (the simulator is purely
// cycle-domain, so lower clocks demand covered prefixes). Priming is an
// optimization only: any failure returns nil, and per-point evaluation
// then performs its own sizing and reproduces the scalar path's exact
// error.
func (d *Domain) PrimeTraceAt(l Load, dt float64, n int, maxClockHz float64) *uarch.Trace {
	if dt <= 0 || n < 1 || d.validateLoad(l) != nil {
		return nil
	}
	cl := d.clusterLoad(l, maxClockHz)
	if cl.Validate() != nil {
		return nil
	}
	tr, err := uarch.PrimeTrace(cl.Core, cl.Seq, cl.PrimeSteadyCycles(dt, n))
	if err != nil {
		return nil
	}
	return tr
}

// PointEval is one sized operating point of a batched campaign: the loop
// fundamental for band prefiltering plus the prepared simulation the
// spectra evaluation reuses, so an in-band point never sizes twice.
type PointEval struct {
	// LoopHz is the load's loop fundamental at this point's clock — the
	// value LoopHzAt reports, available before any spectra cost is paid.
	LoopHz float64

	d     *Domain
	load  Load
	clock float64
	sim   power.SteadySim
}

// PreparePointAt sizes one batched operating point at an explicit
// (snapped) clock, serving the simulation from tr when it covers the
// window (a nil trace falls back to per-point sizing). The underlying
// uarch result is the one a LoopHzAt or SpectraAt call would carry, so
// prefilter decisions and spectra stay bit-identical to the scalar path.
func (d *Domain) PreparePointAt(l Load, dt float64, n int, clockHz float64, tr *uarch.Trace) (PointEval, error) {
	if err := d.validateLoad(l); err != nil {
		return PointEval{}, err
	}
	sim, err := d.clusterLoad(l, clockHz).SteadySimTrace(dt, n, tr)
	if err != nil {
		return PointEval{}, err
	}
	return PointEval{
		LoopHz: power.LoopFrequency(sim.Res, clockHz),
		d:      d,
		load:   l,
		clock:  clockHz,
		sim:    sim,
	}, nil
}

// SpectraArena evaluates the prepared point's spectra at an explicit
// (supply, powered) snapshot, drawing every transient row — including the
// amplitude outputs — from the caller's arena, so the results die at the
// arena's next Reset. Results are bit-identical to SpectraAt at the same
// snapshot.
func (pe *PointEval) SpectraArena(supply float64, powered int, ar *slab.Arena) (freqs, vAmp, iAmp []float64, err error) {
	d := pe.d
	n := pe.sim.N
	wave := ar.FloatsUninit(n) // FillFromSim overwrites (or clears) all n
	cl := d.clusterLoad(pe.load, pe.clock)
	if err := cl.FillFromSim(pe.sim, wave); err != nil {
		return nil, nil, nil, err
	}
	idle := power.IdleCurrent(d.Spec.Core, pe.clock) * float64(powered-pe.load.ActiveCores)
	scale := supply / d.Spec.PDN.VNominal
	for i := range wave {
		wave[i] = (wave[i] + idle) * scale
	}
	ts, err := d.transferSetAt(powered, supply, n, pe.sim.Dt)
	if err != nil {
		return nil, nil, nil, err
	}
	half := n/2 + 1
	vAmp = ar.FloatsUninit(half) // the amplitude fold overwrites every bin
	iAmp = ar.FloatsUninit(half)
	freqs, err = ts.SpectraInto(vAmp, iAmp, wave,
		ar.ComplexesUninit(half), ar.ComplexesUninit(dsp.RFFTScratchLen(n)))
	if err != nil {
		return nil, nil, nil, err
	}
	return freqs, vAmp, iAmp, nil
}

// Ladder is the batched evaluator of one (load, clock) column of a V_MIN
// campaign. Everything supply-invariant is frozen at construction: the
// sized simulation, the resampled and slew-filtered base current waveform
// (idle lift and supply scaling apply after the slew filter, exactly as in
// the scalar path), and the PDN transfer set. Each supply step then pays
// only the scale + FFT + inverse-FFT remainder, streamed through the
// owning arena's rows, and the (minV, droop) outcome is memoized per
// supply — the response is a pure function of (load, clock, supply,
// powered), so the repeated descents of a Repeat campaign and the shared
// nominal trial dedup to one evaluation. Responses are bit-identical to
// SteadyResponseAt at the same point.
//
// A Ladder is not safe for concurrent use; batch paths keep one per
// worker. Its rows live in the construction arena and die at that arena's
// next Reset.
type Ladder struct {
	d       *Domain
	clock   float64
	powered int
	idle    float64
	dt      float64
	n       int
	ts      *pdn.TransferSet
	base    []float64 // post-slew cluster current, before idle lift / supply scale
	wave    []float64
	vdie    []float64
	idie    []float64
	spec    []complex128
	prod    []complex128
	scratch []complex128
	memo    map[float64]ladderPoint
}

type ladderPoint struct {
	minV, droop float64
}

// LadderAt prepares the supply-invariant parts of one V_MIN column at an
// explicit (snapped) clock, serving the simulation from tr when it covers
// the window (nil falls back to per-point sizing). The powered-core count
// snapshots the domain, matching SteadyResponseAt's contract.
func (d *Domain) LadderAt(l Load, dt float64, n int, clockHz float64, tr *uarch.Trace, ar *slab.Arena) (*Ladder, error) {
	if err := d.validateLoad(l); err != nil {
		return nil, err
	}
	powered := d.PoweredCores()
	cl := d.clusterLoad(l, clockHz)
	sim, err := cl.SteadySimTrace(dt, n, tr)
	if err != nil {
		return nil, err
	}
	// The transfer set is supply-independent (the network is linear); the
	// nominal supply here only seeds a cache miss's model build.
	ts, err := d.transferSetAt(powered, d.Spec.PDN.VNominal, n, dt)
	if err != nil {
		return nil, err
	}
	base := ar.FloatsUninit(n)
	if err := cl.FillFromSim(sim, base); err != nil {
		return nil, err
	}
	half := n/2 + 1
	return &Ladder{
		d:       d,
		clock:   clockHz,
		powered: powered,
		idle:    power.IdleCurrent(d.Spec.Core, clockHz) * float64(powered-l.ActiveCores),
		dt:      dt,
		n:       n,
		ts:      ts,
		base:    base,
		wave:    ar.FloatsUninit(n),
		vdie:    ar.FloatsUninit(n),
		idie:    ar.FloatsUninit(n),
		spec:    ar.ComplexesUninit(half),
		prod:    ar.ComplexesUninit(half),
		scratch: ar.ComplexesUninit(dsp.RFFTScratchLen(n)),
		memo:    make(map[float64]ladderPoint),
	}, nil
}

// MinVDroop evaluates the column at one supply: the response's minimum die
// voltage and its worst droop below the supply — the two scalars the V_MIN
// failure model consumes. Values are bit-identical to running
// SteadyResponseAt and reading MinVoltage/MaxDroop off the response.
func (ld *Ladder) MinVDroop(supply float64) (minV, droopV float64, err error) {
	if p, ok := ld.memo[supply]; ok {
		return p.minV, p.droop, nil
	}
	d := ld.d
	if supply <= 0 || supply > 2*d.Spec.PDN.VNominal {
		return 0, 0, fmt.Errorf("platform: %s: supply %v out of range", d.Spec.Name, supply)
	}
	scale := supply / d.Spec.PDN.VNominal
	for i, v := range ld.base {
		ld.wave[i] = (v + ld.idle) * scale
	}
	if err := ld.ts.SteadyStateInto(ld.vdie, ld.idie, ld.wave, supply, ld.spec, ld.prod, ld.scratch); err != nil {
		return 0, 0, err
	}
	resp := pdn.Response{Dt: ld.dt, VDie: ld.vdie, IDie: ld.idie}
	minV = resp.MinVoltage()
	droopV = resp.MaxDroop(supply)
	ld.memo[supply] = ladderPoint{minV: minV, droop: droopV}
	return minV, droopV, nil
}
