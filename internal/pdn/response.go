package pdn

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/dsp"
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

	// freqs, absHV and absHI are per-bin values that depend only on (N, Dt)
	// and the model: the bin frequencies and transfer magnitudes. They are
	// computed once here rather than on every SpectraInto call, and shared
	// read-only with every caller.
	freqs []float64
	absHV []float64
	absHI []float64

	maxAbsHV float64 // the largest |HV| over the bins
	rSeries  float64 // total DC series resistance, for the DC droop term
}

// Transfers computes the transfer set for n samples at spacing dt.
func (m *Model) Transfers(n int, dt float64) (*TransferSet, error) {
	if err := dsp.Validate(n, 1/dt); err != nil {
		return nil, err
	}
	s, err := m.newLoadSolver()
	if err != nil {
		return nil, err
	}
	half := n/2 + 1
	ts := &TransferSet{
		N: n, Dt: dt,
		HV:    make([]complex128, half),
		HI:    make([]complex128, half),
		freqs: make([]float64, half),
		absHV: make([]float64, half),
		absHI: make([]float64, half),
	}
	fs := 1 / dt
	for k := 0; k < half; k++ {
		f := dsp.BinFreq(k, n, fs)
		hv, hi, err := s.transfer(f)
		if err != nil {
			return nil, fmt.Errorf("pdn: transfer at bin %d (%g Hz): %w", k, f, err)
		}
		ts.HV[k] = hv
		ts.HI[k] = hi
		ts.freqs[k] = f
		ts.absHV[k] = cmplx.Abs(hv)
		ts.absHI[k] = cmplx.Abs(hi)
		ts.maxAbsHV = math.Max(ts.maxAbsHV, ts.absHV[k])
	}
	// At DC, HV is -R_series; remember it for reporting.
	ts.rSeries = -real(ts.HV[0])
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

// SpectraInto fills the single-sided amplitude spectra of the die voltage
// and inductor current under the given load waveform (len N): freqs[k] in
// Hz, amplitudes in volts and amps. vAmp, iAmp and spec must have length
// N/2+1 and fftScratch at least dsp.RFFTScratchLen(N) (batch slab rows).
// The returned freqs slice is shared across calls (it depends only on the
// transfer set) and must not be modified.
func (ts *TransferSet) SpectraInto(vAmp, iAmp, load []float64, spec, fftScratch []complex128) (freqs []float64, err error) {
	n := ts.N
	if len(load) != n {
		return nil, fmt.Errorf("pdn: spectra load length %d, want %d", len(load), n)
	}
	half := n/2 + 1
	if len(vAmp) != half || len(iAmp) != half || len(spec) != half {
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
		vAmp[k] = mag * ts.absHV[k]
		iAmp[k] = mag * ts.absHI[k]
	}
	return ts.freqs, nil
}

// RSeries returns the total DC series resistance of the network as seen by
// the die (used for IR-drop reporting).
func (ts *TransferSet) RSeries() float64 { return ts.rSeries }

// MaxAbsHV returns the largest die-voltage transfer magnitude over the
// bins: the 2-norm of the steady-state map from load current to die-voltage
// ripple (the map is a circulant convolution, diagonal in the DFT basis).
func (ts *TransferSet) MaxAbsHV() float64 { return ts.maxAbsHV }
