package pdn

import (
	"fmt"
	"math"
	"math/cmplx"
)

// HarmonicResponse computes the exact periodic steady-state die voltage and
// package-inductor current when the load current is given by a Fourier
// series: i(t) = sum_k coeffs[k]·exp(j·k·2π·f0·t) + conjugate terms, where
// coeffs[0] is the (real) DC level and coeffs[k] for k>=1 is the complex
// coefficient of the positive-frequency term. The response is sampled at
// samples points over one fundamental period.
//
// This is the natural analysis for the synthetic current load (SCL), whose
// square-wave stimulus has a closed-form series (see SquareWaveCoeffs).
func (m *Model) HarmonicResponse(f0 float64, coeffs []complex128, samples int) (*Response, error) {
	if f0 <= 0 || math.IsNaN(f0) {
		return nil, fmt.Errorf("pdn: invalid fundamental %v", f0)
	}
	if len(coeffs) == 0 || samples < 2 {
		return nil, fmt.Errorf("pdn: need coefficients and >=2 samples")
	}
	s, err := m.newLoadSolver()
	if err != nil {
		return nil, err
	}
	type hk struct{ hv, hi complex128 }
	hs := make([]hk, len(coeffs))
	for k := range coeffs {
		hv, hi, err := s.transfer(float64(k) * f0)
		if err != nil {
			return nil, err
		}
		hs[k] = hk{hv, hi}
	}
	period := 1 / f0
	dt := period / float64(samples)
	out := &Response{Dt: dt, VDie: make([]float64, samples), IDie: make([]float64, samples)}
	for s := 0; s < samples; s++ {
		// DC terms are real by construction.
		v := m.Params.VNominal + real(hs[0].hv*coeffs[0])
		i := real(hs[0].hi * coeffs[0])
		for k := 1; k < len(coeffs); k++ {
			if coeffs[k] == 0 {
				continue
			}
			rot := cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(s)/float64(samples)))
			v += 2 * real(hs[k].hv*coeffs[k]*rot)
			i += 2 * real(hs[k].hi*coeffs[k]*rot)
		}
		out.VDie[s] = v
		out.IDie[s] = i
	}
	return out, nil
}

// SquareWaveCoeffs returns the Fourier coefficients (through harmonic K) of
// a 50% duty-cycle square wave switching between 0 and amp.
func SquareWaveCoeffs(amp float64, k int) []complex128 {
	coeffs := make([]complex128, k+1)
	coeffs[0] = complex(amp/2, 0)
	for n := 1; n <= k; n++ {
		if n%2 == 1 {
			// c_n = amp/(j·π·n)
			coeffs[n] = complex(0, -amp/(math.Pi*float64(n)))
		}
	}
	return coeffs
}
