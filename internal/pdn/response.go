package pdn

import (
	"fmt"
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
	// computed once here rather than on every Spectra call, and shared
	// read-only with every caller.
	freqs []float64
	absHV []float64
	absHI []float64

	vnominal float64
	rSeries  float64 // total DC series resistance, for the DC droop term
}

// Transfers computes the transfer set for n samples at spacing dt.
func (m *Model) Transfers(n int, dt float64) (*TransferSet, error) {
	if err := dsp.Validate(n, 1/dt); err != nil {
		return nil, err
	}
	s, err := m.loadSolver()
	if err != nil {
		return nil, err
	}
	half := n/2 + 1
	ts := &TransferSet{
		N: n, Dt: dt,
		HV:       make([]complex128, half),
		HI:       make([]complex128, half),
		freqs:    make([]float64, half),
		absHV:    make([]float64, half),
		absHI:    make([]float64, half),
		vnominal: m.Params.VNominal,
	}
	fs := 1 / dt
	for k := 0; k < half; k++ {
		f := dsp.BinFreq(k, n, fs)
		res, err := s.Solve(f)
		if err != nil {
			return nil, fmt.Errorf("pdn: transfer at bin %d (%g Hz): %w", k, f, err)
		}
		hv, err := res.Voltage(NodeDie)
		if err != nil {
			return nil, err
		}
		hi, err := res.Current(ElemLPkg)
		if err != nil {
			return nil, err
		}
		ts.HV[k] = hv
		ts.HI[k] = hi
		ts.freqs[k] = f
		ts.absHV[k] = cmplx.Abs(hv)
		ts.absHI[k] = cmplx.Abs(hi)
	}
	// At DC, HV is -R_series; remember it for reporting.
	ts.rSeries = -real(ts.HV[0])
	return ts, nil
}

// SteadyState returns the exact periodic steady-state response to the load
// waveform (len must be N): VDie includes the nominal DC level, IDie is the
// package-inductor current including its DC component.
func (ts *TransferSet) SteadyState(load []float64) (*Response, error) {
	return ts.SteadyStateAt(load, ts.vnominal)
}

// SteadyStateAt is SteadyState with an explicit regulator setpoint. The
// transfer functions themselves are independent of the supply (the network
// is linear), so one TransferSet serves every voltage step of a V_MIN
// search.
func (ts *TransferSet) SteadyStateAt(load []float64, vnominal float64) (*Response, error) {
	if len(load) != ts.N {
		return nil, fmt.Errorf("pdn: steady-state load length %d, want %d", len(load), ts.N)
	}
	spec := dsp.RFFT(load)
	n := ts.N
	half := n/2 + 1
	vspec := dsp.GetSpectrum(half)
	ispec := dsp.GetSpectrum(half)
	for k := 0; k < half; k++ {
		vspec[k] = spec[k] * ts.HV[k]
		ispec[k] = spec[k] * ts.HI[k]
	}
	dsp.PutSpectrum(spec)
	// The load is real and the transfers are evaluated on the half grid, so
	// the responses are real too: invert on the half spectrum directly.
	vt := dsp.IRFFT(vspec, n)
	it := dsp.IRFFT(ispec, n)
	dsp.PutSpectrum(vspec)
	dsp.PutSpectrum(ispec)
	// Lift the voltage perturbation to the DC level in place; vt is freshly
	// allocated by IRFFT, so the Response owns it.
	for i := 0; i < n; i++ {
		vt[i] = vnominal + vt[i]
	}
	out := &Response{Dt: ts.Dt, VDie: vt, IDie: it}
	// IDie from the transfer is the *perturbation*; its DC component equals
	// the load's mean already via HI[0] (at DC all load current flows
	// through the inductor), so nothing more to add.
	return out, nil
}

// SteadyStateInto is the voltage half of SteadyStateAt writing into
// caller-provided rows, for batched V_MIN campaigns: vdie must have length
// N, spec and prod length N/2+1, and fftScratch at least
// dsp.RFFTScratchLen(N) entries (all batch slab rows; every element is
// overwritten before any read). A V_MIN rung reads only the die voltage,
// so the inductor-current inversion is not run. Each per-bin value is the
// same arithmetic SteadyStateAt performs, so vdie is bit-identical to its
// VDie.
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

// Spectra returns the single-sided amplitude spectra of the die voltage and
// inductor current under the given load waveform (len N): freqs[k] in Hz,
// amplitudes in volts and amps. The returned freqs slice is shared across
// calls (it depends only on the transfer set) and must not be modified.
func (ts *TransferSet) Spectra(load []float64) (freqs, vAmp, iAmp []float64, err error) {
	if len(load) != ts.N {
		return nil, nil, nil, fmt.Errorf("pdn: spectra load length %d, want %d", len(load), ts.N)
	}
	spec := dsp.RFFT(load)
	half := ts.N/2 + 1
	vAmp = make([]float64, half)
	iAmp = make([]float64, half)
	ts.foldAmp(vAmp, iAmp, spec)
	dsp.PutSpectrum(spec)
	return ts.freqs, vAmp, iAmp, nil
}

// SpectraInto is Spectra with caller-provided destinations and FFT scratch,
// for generation-batched evaluation: vAmp, iAmp and spec must have length
// N/2+1 and fftScratch at least dsp.RFFTScratchLen(N) (batch slab rows).
// The FFT and the per-bin fold run the same arithmetic in the same order as
// Spectra, so the filled amplitudes are bit-identical. The returned freqs
// slice is shared across calls and must not be modified.
func (ts *TransferSet) SpectraInto(vAmp, iAmp, load []float64, spec, fftScratch []complex128) (freqs []float64, err error) {
	if len(load) != ts.N {
		return nil, fmt.Errorf("pdn: spectra load length %d, want %d", len(load), ts.N)
	}
	half := ts.N/2 + 1
	if len(vAmp) != half || len(iAmp) != half || len(spec) != half {
		return nil, fmt.Errorf("pdn: spectra destinations %d/%d/%d bins, want %d",
			len(vAmp), len(iAmp), len(spec), half)
	}
	if len(fftScratch) < dsp.RFFTScratchLen(ts.N) {
		return nil, fmt.Errorf("pdn: FFT scratch %d, want %d", len(fftScratch), dsp.RFFTScratchLen(ts.N))
	}
	ts.foldAmp(vAmp, iAmp, dsp.RFFTInto(spec, load, fftScratch))
	return ts.freqs, nil
}

// foldAmp folds a half spectrum into single-sided voltage and current
// amplitudes; the one shared body keeps Spectra and SpectraInto bit-identical.
func (ts *TransferSet) foldAmp(vAmp, iAmp []float64, spec []complex128) {
	n := ts.N
	scale0 := 1 / float64(n)
	s2 := scale0 * 2
	for k := 0; k < len(spec); k++ {
		scale := s2
		if k == 0 || (n%2 == 0 && k == n/2) {
			scale = scale0
		}
		mag := dsp.CAbs(spec[k]) * scale
		vAmp[k] = mag * ts.absHV[k]
		iAmp[k] = mag * ts.absHI[k]
	}
}

// RSeries returns the total DC series resistance of the network as seen by
// the die (used for IR-drop reporting).
func (ts *TransferSet) RSeries() float64 { return ts.rSeries }
