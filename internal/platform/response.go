package platform

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/isa"
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

// SpectraArena returns the single-sided amplitude spectra of the die
// voltage and package-inductor current under the workload at the maximum
// clock and nominal supply. Every transient row — the current waveform, the
// half spectrum, the FFT scratch and the amplitude outputs — is drawn from
// the caller's arena, so the outputs die at its next Reset; freqs is the
// transfer set's shared grid and must be treated as read-only.
func (d *Domain) SpectraArena(l Load, dt float64, n int, ar *slab.Arena) (freqs, vAmp, iAmp []float64, res *uarch.Result, err error) {
	pe, err := d.PreparePointAt(l, dt, n, d.ClockHz(), nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	freqs, vAmp, iAmp, err = pe.SpectraArena(d.SupplyVolts(), d.PoweredCores(), ar)
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
