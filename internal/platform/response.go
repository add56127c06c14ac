package platform

import (
	"fmt"

	"repro/internal/detrand"
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

// currentAt fills buf (length n) with the total load current drawn from
// this domain's rail by the workload at an explicit operating point,
// sampled at dt, and returns the micro-architectural result for the loop.
// The current scales with the supply setting (dynamic charge is
// proportional to voltage). No domain state is read or touched.
func (d *Domain) currentAt(l Load, dt float64, n int, clock, supply float64, powered int, buf []float64) (*uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return nil, err
	}
	res, err := d.clusterLoad(l, clock).CurrentInto(buf, dt, n)
	if err != nil {
		return nil, err
	}
	idle := power.IdleCurrent(d.Spec.Core, clock) * float64(powered-l.ActiveCores)
	scale := supply / d.Spec.PDN.VNominal
	for i := range buf {
		buf[i] = (buf[i] + idle) * scale
	}
	return res, nil
}

// SpectraArena returns the single-sided amplitude spectra of the die
// voltage and package-inductor current under the workload at the domain's
// current operating point. Every transient row — the current waveform, the
// half spectrum, the FFT scratch and the amplitude outputs — is drawn from
// the caller's arena, so the outputs die at its next Reset; freqs is the
// transfer set's shared grid and must be treated as read-only.
func (d *Domain) SpectraArena(l Load, dt float64, n int, ar *slab.Arena) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	pe, err := d.PreparePointAt(l, dt, n, clock, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	freqs, vAmp, iAmp, err = pe.SpectraArena(supply, powered, ar)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return freqs, vAmp, iAmp, pe.sim.Res, nil
}

// LoopHzAt returns the workload's loop fundamental frequency at an explicit
// (snapped) clock, sharing the spectra path's exact simulation sizing so
// the underlying uarch result is the one a full spectra evaluation would
// carry. It pays the simulation but not the resample + FFT + instruments;
// batched sweeps band-filter from one primed trace instead
// (PreparePointAt).
func (d *Domain) LoopHzAt(l Load, dt float64, n int, clockHz float64) (float64, *uarch.Result, error) {
	if err := d.validateLoad(l); err != nil {
		return 0, nil, err
	}
	return d.clusterLoad(l, clockHz).LoopHz(dt, n)
}

// TransientResponse integrates the PDN under the workload's current
// waveform with the full transient solver — the slower, reference path
// (the fast steady-state path, SteadyVDie, must agree with it; see the
// ablation benchmarks).
func (d *Domain) TransientResponse(l Load, dt float64, n int) (*pdn.Response, *uarch.Result, error) {
	d.mu.Lock()
	clock, supply, powered := d.clockHz, d.supplyVolts, d.poweredCores
	d.mu.Unlock()
	wave := make([]float64, n)
	res, err := d.currentAt(l, dt, n, clock, supply, powered, wave)
	if err != nil {
		return nil, nil, err
	}
	m, err := d.modelAt(powered, supply)
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
	if err != nil {
		return nil, nil, err
	}
	return resp, res, nil
}
