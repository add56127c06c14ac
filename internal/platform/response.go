package platform

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// Load is a stress workload bound to a domain: one instruction loop run in
// lockstep on ActiveCores cores. Powered-but-idle cores contribute their
// idle current; power-gated cores contribute nothing (and their absence
// also raises the PDN resonance via the die-capacitance model).
type Load struct {
	Seq         []isa.Inst
	ActiveCores int
	// PhaseCycles optionally staggers the active cores (empty = aligned).
	PhaseCycles []float64
}

// Hash returns a content hash of the load (sequence, active cores, phase
// stagger) for cache keys and measurement-noise streams.
func (l Load) Hash() uint64 {
	h := detrand.NewHash()
	h.Int(len(l.Seq))
	for _, in := range l.Seq {
		h.String(in.Def.Mnemonic)
		h.Int(in.Dest)
		h.Int(in.Srcs[0])
		h.Int(in.Srcs[1])
		h.Int(in.Addr)
	}
	h.Int(l.ActiveCores)
	h.Floats(l.PhaseCycles)
	return h.Sum()
}

// Validate reports the first problem with the load for this domain.
func (d *Domain) validateLoad(l Load) error {
	if len(l.Seq) == 0 {
		return fmt.Errorf("platform: %s: empty workload", d.Spec.Name)
	}
	if l.ActiveCores < 1 || l.ActiveCores > d.PoweredCores() {
		return fmt.Errorf("platform: %s: %d active cores with %d powered",
			d.Spec.Name, l.ActiveCores, d.PoweredCores())
	}
	return nil
}

// Current returns the total load current drawn from this domain's rail by
// the workload, sampled at dt over n points, plus the micro-architectural
// result for the loop. The current scales with the supply setting
// (dynamic charge is proportional to voltage).
func (d *Domain) Current(l Load, dt float64, n int) ([]float64, *uarch.Result, error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	return d.currentAt(l, dt, n, clock, supply, powered, nil)
}

// currentAt is Current with the domain state passed explicitly, so
// concurrent sweeps can evaluate many operating points without mutating
// (or locking) the shared domain. With buf nil the returned waveform may
// come from the power wave pool and internal callers that consume it
// immediately hand it back via power.PutWave; a non-nil buf (a batch slab
// row of length n) is filled and returned instead, and must not be pooled.
func (d *Domain) currentAt(l Load, dt float64, n int, clock, supply float64, powered int, buf []float64) ([]float64, *uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return nil, nil, err
	}
	cl := d.clusterLoad(l, clock)
	var wave []float64
	var res *uarch.Result
	var err error
	if buf != nil {
		wave = buf
		res, err = cl.CurrentInto(wave, dt, n)
	} else {
		wave, res, err = cl.Current(dt, n)
	}
	if err != nil {
		return nil, nil, err
	}
	idle := power.IdleCurrent(d.Spec.Core, clock) * float64(powered-l.ActiveCores)
	scale := supply / d.Spec.PDN.VNominal
	for i := range wave {
		wave[i] = (wave[i] + idle) * scale
	}
	return wave, res, nil
}

// SteadyResponse returns the exact periodic steady-state die voltage and
// package-inductor current under the workload, using cached PDN transfers.
func (d *Domain) SteadyResponse(l Load, dt float64, n int) (*pdn.Response, *uarch.Result, error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	return d.steadyResponseAt(l, dt, n, clock, supply, powered)
}

// SteadyResponseAt is SteadyResponse at an explicit clock and supply
// setting (the powered-core count still comes from the domain). The clock
// should be a value returned by SnapClock; no domain state is touched, so
// shmoos can evaluate a whole grid of operating points concurrently.
func (d *Domain) SteadyResponseAt(l Load, dt float64, n int, clockHz, supplyVolts float64) (*pdn.Response, *uarch.Result, error) {
	if supplyVolts <= 0 || supplyVolts > 2*d.Spec.PDN.VNominal {
		return nil, nil, fmt.Errorf("platform: %s: supply %v out of range", d.Spec.Name, supplyVolts)
	}
	return d.steadyResponseAt(l, dt, n, clockHz, supplyVolts, d.PoweredCores())
}

func (d *Domain) steadyResponseAt(l Load, dt float64, n int, clock, supply float64, powered int) (*pdn.Response, *uarch.Result, error) {
	wave, res, err := d.currentAt(l, dt, n, clock, supply, powered, nil)
	if err != nil {
		return nil, nil, err
	}
	ts, err := d.transferSetAt(powered, supply, n, dt)
	if err != nil {
		return nil, nil, err
	}
	resp, err := ts.SteadyStateAt(wave, supply)
	power.PutWave(wave)
	if err != nil {
		return nil, nil, err
	}
	return resp, res, nil
}

// Spectra returns the single-sided amplitude spectra of the die voltage
// and package-inductor current under the workload, served from the disk
// tier when one is installed (see spectraKey); the returned slices may be
// shared and must be treated as read-only.
func (d *Domain) Spectra(l Load, dt float64, n int) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	return d.SpectraArena(l, dt, n, nil)
}

// SpectraArena is Spectra drawing its transient buffers (the current
// waveform, the half spectrum and the FFT scratch) and the amplitude
// outputs from a caller's batch arena instead of the shared pools; the
// outputs then follow the arena's lifetime rules. Results are bit-identical
// to Spectra; a nil arena is the pooled path.
func (d *Domain) SpectraArena(l Load, dt float64, n int, ar *slab.Arena) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	return d.spectraAt(l, dt, n, clock, supply, powered, ar)
}

// SpectraAt is Spectra at an explicit clock (the supply and powered-core
// count still come from the domain). The clock should be a value returned
// by SnapClock; no domain state is touched, so resonance sweeps can
// evaluate every clock step concurrently.
func (d *Domain) SpectraAt(l Load, dt float64, n int, clockHz float64) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	d.mu.Lock()
	supply, powered := d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	return d.spectraAt(l, dt, n, clockHz, supply, powered, nil)
}

func (d *Domain) spectraAt(l Load, dt float64, n int, clock, supply float64, powered int, ar *slab.Arena) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	key := spectraKey{load: l.Hash(), powered: powered, clock: clock, supply: supply, dt: dt, n: n}
	compute := func() (*spectraEntry, error) {
		var buf []float64
		if ar != nil {
			buf = ar.FloatsUninit(n) // fillCurrent overwrites (or clears) all n
		}
		wave, res, err := d.currentAt(l, dt, n, clock, supply, powered, buf)
		if err != nil {
			return nil, err
		}
		ts, err := d.transferSetAt(powered, supply, n, dt)
		if err != nil {
			return nil, err
		}
		var freqs, vAmp, iAmp []float64
		if ar != nil {
			half := n/2 + 1
			// RFFTInto writes every element of both complex rows before any
			// read, and the amplitude fold overwrites every bin.
			vAmp = ar.FloatsUninit(half)
			iAmp = ar.FloatsUninit(half)
			freqs, err = ts.SpectraInto(vAmp, iAmp, wave,
				ar.ComplexesUninit(half), ar.ComplexesUninit(dsp.RFFTScratchLen(n)))
		} else {
			freqs, vAmp, iAmp, err = ts.Spectra(wave)
			power.PutWave(wave)
		}
		if err != nil {
			return nil, err
		}
		return &spectraEntry{freqs: freqs, vAmp: vAmp, iAmp: iAmp, res: res}, nil
	}
	// The disk tier (when installed) serves the computation from a prior
	// process's work, collapses concurrent computations of this key onto one,
	// and writes fresh results through; the closure's arena belongs to this
	// worker only (waiters receive the encoded payload, never the closure).
	ent, err := d.spectraComputeOrDisk(key, compute)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return ent.freqs, ent.vAmp, ent.iAmp, ent.res, nil
}

// LoopHzAt returns the workload's loop fundamental frequency at an explicit
// (snapped) clock, sharing SpectraAt's exact simulation sizing so the
// underlying uarch result is the one a full spectra evaluation would carry.
// With the uarch trace cache warm this costs a cache lookup, letting sweeps
// band-filter clock steps before paying for resample + FFT + instruments.
func (d *Domain) LoopHzAt(l Load, dt float64, n int, clockHz float64) (float64, *uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return 0, nil, err
	}
	return d.clusterLoad(l, clockHz).LoopHz(dt, n)
}

// TransientResponse integrates the PDN under the workload's current
// waveform with the full transient solver — the slower, reference path
// (the fast SteadyResponse path must agree with it; see the ablation
// benchmarks).
func (d *Domain) TransientResponse(l Load, dt float64, n int) (*pdn.Response, *uarch.Result, error) {
	wave, res, err := d.Current(l, dt, n)
	if err != nil {
		return nil, nil, err
	}
	m, err := d.Model()
	if err != nil {
		return nil, nil, err
	}
	sampled := func(t float64) float64 {
		idx := int(t / dt)
		if idx < 0 {
			idx = 0
		}
		if idx >= len(wave) {
			idx = len(wave) - 1
		}
		return wave[idx]
	}
	resp, err := m.Transient(sampled, dt, n-1)
	power.PutWave(wave)
	if err != nil {
		return nil, nil, err
	}
	return resp, res, nil
}
