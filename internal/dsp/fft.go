// Package dsp provides the signal-processing primitives used by the
// simulated instruments: FFT (radix-2 and Bluestein for arbitrary lengths),
// window functions, amplitude spectra, RMS and dB helpers, and spectral peak
// finding.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any length is accepted: powers of two use an in-place radix-2
// algorithm, other lengths use Bluestein's chirp-z transform.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x (normalized by
// 1/N). The input is not modified.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal transforms a real signal, returning the full complex spectrum.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if len(c) == 0 {
		return nil
	}
	if len(c)&(len(c)-1) == 0 {
		fftRadix2(c, false)
		return c
	}
	return bluestein(c, false)
}

// fftRadix2 performs an in-place iterative radix-2 Cooley-Tukey FFT.
// len(x) must be a power of two. inverse selects conjugated twiddles
// (without the 1/N normalization).
//
// The stages run in pairs (size s, then 2s): one pass loads four values,
// runs the same four butterflies with the same twiddles as two separate
// stages would, and stores the results, halving the passes over x. A lone
// size-2 stage goes first when log2(n) is odd. Every output value is the
// same chain of operations as stage-by-stage, so the result is bit for
// bit unchanged.
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	logn := bits.TrailingZeros(uint(n))
	shift := 64 - uint(logn)
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	size := 2
	if logn%2 == 1 {
		w := stageTwiddles(2, inverse)[0]
		for start := 0; start < n; start += 2 {
			a := x[start]
			b := x[start+1] * w
			x[start] = a + b
			x[start+1] = a - b
		}
		size = 4
	}
	for ; size < n; size <<= 2 {
		// Stage size s butterflies (j, j+h) and (s+j, s+j+h) of each 2s
		// block with tw1[j]; stage 2s then butterflies (j, s+j) with
		// tw2[j] and (j+h, s+j+h) with tw2[h+j]. Splitting the block into
		// quarters lets the compiler drop the bounds checks.
		h := size >> 1
		tw1 := stageTwiddles(size, inverse)[:h]
		tw2 := stageTwiddles(2*size, inverse)[:size]
		tw2lo, tw2hi := tw2[:h:h], tw2[h:size:size]
		for start := 0; start < n; start += 2 * size {
			q0 := x[start : start+h : start+h]
			q1 := x[start+h : start+size : start+size]
			q2 := x[start+size : start+size+h : start+size+h]
			q3 := x[start+size+h : start+2*size : start+2*size]
			for j := range tw1 {
				w := tw1[j]
				a0, b0 := q0[j], q1[j]*w
				a1, b1 := q2[j], q3[j]*w
				y0, y1 := a0+b0, a0-b0
				y2, y3 := a1+b1, a1-b1
				c := y2 * tw2lo[j]
				d := y3 * tw2hi[j]
				q0[j], q2[j] = y0+c, y0-c
				q1[j], q3[j] = y1+d, y1-d
			}
		}
	}
}

// bluestein computes the DFT of arbitrary length via the chirp-z transform,
// using radix-2 FFTs of length m >= 2n-1. The chirp and filter spectrum
// come from a cached per-length plan (see plan.go).
func bluestein(x []complex128, inverse bool) []complex128 {
	return bluesteinPlanFor(len(x), inverse).transform(x)
}

// AmplitudeSpectrum returns single-sided amplitude estimates for a real
// signal sampled at rate fs: bin k corresponds to frequency k*fs/N for
// k in [0, N/2]. Non-DC (and non-Nyquist) bins are doubled so a pure
// sinusoid of amplitude A reports A at its bin.
func AmplitudeSpectrum(x []float64, fs float64) (freqs, amps []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	spec := RFFT(x)
	half := n/2 + 1
	freqs = make([]float64, half)
	amps = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) * fs / float64(n)
		a := cmplx.Abs(spec[k]) / float64(n)
		if k != 0 && !(n%2 == 0 && k == n/2) {
			a *= 2
		}
		amps[k] = a
	}
	return freqs, amps
}

// BinFreq returns the frequency of bin k for an N-point transform of a
// signal sampled at fs.
func BinFreq(k, n int, fs float64) float64 {
	return float64(k) * fs / float64(n)
}

// Validate panics unless the sample rate and length form a usable spectrum;
// used by instruments to catch configuration errors early.
func Validate(n int, fs float64) error {
	if n <= 0 {
		return fmt.Errorf("dsp: non-positive length %d", n)
	}
	if fs <= 0 || math.IsNaN(fs) || math.IsInf(fs, 0) {
		return fmt.Errorf("dsp: invalid sample rate %v", fs)
	}
	return nil
}
