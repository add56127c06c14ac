package pdn

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/dsp"
	"repro/internal/par"
)

// Response holds a time-domain PDN response.
type Response struct {
	Dt   float64   // sample spacing, seconds
	VDie []float64 // die voltage including DC level
	IDie []float64 // package-inductor current (the EM-radiating feed current)
}

// MaxDroop returns the largest drop of VDie below the nominal voltage.
func (r *Response) MaxDroop(vnom float64) float64 {
	var worst float64
	for _, v := range r.VDie {
		if d := vnom - v; d > worst {
			worst = d
		}
	}
	return worst
}

// PeakToPeak returns the peak-to-peak die-voltage swing.
func (r *Response) PeakToPeak() float64 { return dsp.PeakToPeak(r.VDie) }

// MinVoltage returns the lowest die voltage in the response.
func (r *Response) MinVoltage() float64 {
	min, _ := dsp.MinMax(r.VDie)
	return min
}

// Transient integrates the PDN under the given load-current waveform,
// starting from the DC operating point with the load's t=0 value.
func (m *Model) Transient(load circuit.Waveform, dt float64, steps int) (*Response, error) {
	ckt := m.build(load)
	tr, err := ckt.RunTransient(circuit.TransientOptions{Dt: dt, Steps: steps, FromOP: true})
	if err != nil {
		return nil, err
	}
	v, err := tr.Voltage(NodeDie)
	if err != nil {
		return nil, err
	}
	i, err := tr.Current(ElemLPkg)
	if err != nil {
		return nil, err
	}
	return &Response{Dt: dt, VDie: v, IDie: i}, nil
}

// StepResponse integrates the response to a load-current step of the given
// amplitude applied at t=0+ (Figure 1c of the paper).
func (m *Model) StepResponse(amps, dt float64, steps int) (*Response, error) {
	step := func(t float64) float64 {
		if t > 0 {
			return amps
		}
		return 0
	}
	return m.Transient(step, dt, steps)
}

// TransferSet holds the precomputed complex transfers at the bin frequencies
// of an N-point FFT with sample spacing Dt: for bin k (0..N/2),
// HV[k] is the die-voltage phasor and HI[k] the package-inductor-current
// phasor per unit load current at frequency k/(N·Dt).
//
// A TransferSet depends only on the model, N and Dt, so callers evaluating
// many load waveforms (the GA) compute it once and reuse it.
type TransferSet struct {
	N  int
	Dt float64
	HV []complex128 // len N/2+1
	HI []complex128 // len N/2+1

	// freqs and absHI are per-bin values that depend only on (N, Dt) and
	// the model: the bin frequencies and current-transfer magnitudes. They
	// are computed once here rather than on every SpectraInto call, and
	// shared read-only with every caller.
	freqs []float64
	absHI []float64

	maxAbsHV float64 // the largest |HV| over the bins
}

// transferChunk is the number of consecutive bins a Transfers worker
// claims at a time: 33 chunks at N = 8192, each a few hundred
// microseconds of solves, so a worker that loses its CPU holds up one
// chunk rather than a static share of the set.
const transferChunk = 128

// Transfers computes the transfer set for n samples at spacing dt. The
// bins are independent solves, fanned out over one worker per CPU; each
// worker keeps its own solver, and every bin is a fresh one-frequency
// solve, so the set is bit for bit the same at any worker count.
func (m *Model) Transfers(n int, dt float64) (*TransferSet, error) {
	return m.transfers(n, dt, par.Workers(0))
}

// transfers is Transfers on at most workers (≥ 1) goroutines. A failing bin
// stops its chunk, and the error reported names the lowest failing bin,
// as a serial loop's would.
func (m *Model) transfers(n int, dt float64, workers int) (*TransferSet, error) {
	if err := dsp.Validate(n, 1/dt); err != nil {
		return nil, err
	}
	half := n/2 + 1
	ts := &TransferSet{
		N: n, Dt: dt,
		HV:    make([]complex128, half),
		HI:    make([]complex128, half),
		freqs: make([]float64, half),
		absHI: make([]float64, half),
	}
	fs := 1 / dt
	chunks := (half + transferChunk - 1) / transferChunk
	solvers := make([]*loadSolver, min(workers, chunks)) // one per worker slot, built on first use
	err := par.ForEachWorker(workers, chunks, func(w, c int) error {
		s := solvers[w]
		if s == nil {
			var err error
			if s, err = m.newLoadSolver(); err != nil {
				return err
			}
			solvers[w] = s
		}
		for k := c * transferChunk; k < min((c+1)*transferChunk, half); k++ {
			f := dsp.BinFreq(k, n, fs)
			hv, hi, err := s.transfer(f)
			if err != nil {
				return fmt.Errorf("pdn: transfer at bin %d (%g Hz): %w", k, f, err)
			}
			ts.HV[k], ts.HI[k], ts.freqs[k] = hv, hi, f
			ts.absHI[k] = cmplx.Abs(hi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, hv := range ts.HV {
		ts.maxAbsHV = math.Max(ts.maxAbsHV, cmplx.Abs(hv))
	}
	return ts, nil
}

// SteadyStateInto writes the exact periodic steady-state die voltage under
// the load waveform (len N) into vdie, lifted to the regulator setpoint
// vnominal. The transfer functions themselves are independent of the
// supply (the network is linear), so one TransferSet serves every voltage
// step of a V_MIN search. vdie must have length N, spec and prod length
// N/2+1, and fftScratch at least dsp.RFFTScratchLen(N) entries (batch slab
// rows; every element is overwritten before any read). Steady-state readers
// (the scopes, the V_MIN failure model) need only the die voltage, so no
// inductor-current inversion is run; the EM path folds the current
// spectrum directly (SpectraInto).
func (ts *TransferSet) SteadyStateInto(vdie, load []float64, vnominal float64, spec, prod, fftScratch []complex128) error {
	n := ts.N
	if len(load) != n {
		return fmt.Errorf("pdn: steady-state load length %d, want %d", len(load), n)
	}
	if len(vdie) != n {
		return fmt.Errorf("pdn: steady-state destination %d samples, want %d", len(vdie), n)
	}
	half := n/2 + 1
	if len(spec) != half || len(prod) != half {
		return fmt.Errorf("pdn: steady-state spectra %d/%d bins, want %d", len(spec), len(prod), half)
	}
	if len(fftScratch) < dsp.RFFTScratchLen(n) {
		return fmt.Errorf("pdn: FFT scratch %d, want %d", len(fftScratch), dsp.RFFTScratchLen(n))
	}
	dsp.RFFTInto(spec, load, fftScratch)
	for k := 0; k < half; k++ {
		prod[k] = spec[k] * ts.HV[k]
	}
	dsp.IRFFTInto(vdie, prod, n, fftScratch)
	for i := 0; i < n; i++ {
		vdie[i] = vnominal + vdie[i]
	}
	return nil
}

// SpectraInto fills the single-sided amplitude spectrum of the inductor
// current under the given load waveform (len N), and of the die voltage
// when vAmp is not nil: freqs[k] in Hz, amplitudes in amps and volts. The
// EM path reads only the current, so its callers pass a nil vAmp. iAmp,
// spec and a non-nil vAmp must have length N/2+1 and fftScratch at least
// dsp.RFFTScratchLen(N) (batch slab rows). The returned freqs slice is
// shared across calls (it depends only on the transfer set) and must not
// be modified.
func (ts *TransferSet) SpectraInto(vAmp, iAmp, load []float64, spec, fftScratch []complex128) (freqs []float64, err error) {
	n := ts.N
	if len(load) != n {
		return nil, fmt.Errorf("pdn: spectra load length %d, want %d", len(load), n)
	}
	half := n/2 + 1
	if vAmp != nil && len(vAmp) != half || len(iAmp) != half || len(spec) != half {
		return nil, fmt.Errorf("pdn: spectra destinations %d/%d/%d bins, want %d",
			len(vAmp), len(iAmp), len(spec), half)
	}
	if len(fftScratch) < dsp.RFFTScratchLen(n) {
		return nil, fmt.Errorf("pdn: FFT scratch %d, want %d", len(fftScratch), dsp.RFFTScratchLen(n))
	}
	dsp.RFFTInto(spec, load, fftScratch)
	scale0 := 1 / float64(n)
	s2 := scale0 * 2
	for k := 0; k < half; k++ {
		scale := s2
		if k == 0 || (n%2 == 0 && k == n/2) {
			scale = scale0
		}
		mag := dsp.CAbs(spec[k]) * scale
		iAmp[k] = mag * ts.absHI[k]
		if vAmp != nil {
			vAmp[k] = mag * cmplx.Abs(ts.HV[k])
		}
	}
	return ts.freqs, nil
}

// MaxAbsHV returns the largest die-voltage transfer magnitude over the
// bins: the 2-norm of the steady-state map from load current to die-voltage
// ripple (the map is a circulant convolution, diagonal in the DFT basis).
func (ts *TransferSet) MaxAbsHV() float64 { return ts.maxAbsHV }
