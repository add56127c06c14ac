package dsp

// Real-input FFT. Every signal in the pipeline — current waveforms, rail
// voltage, EM amplitude — is real, so the full complex transform wastes
// half its work on the conjugate-symmetric upper half. RFFT packs the N
// reals into an N/2-point complex transform and untangles the two
// interleaved half-spectra:
//
//	z[j] = x[2j] + i·x[2j+1],  Z = FFT_{m}(z),  m = N/2
//	E[k] = (Z[k] + conj(Z[m−k]))/2        (spectrum of the even samples)
//	O[k] = −i/2 · (Z[k] − conj(Z[m−k]))   (spectrum of the odd samples)
//	X[k] = E[k] + w^k·O[k],  w = exp(−2πi/N),  k = 0..m (indices mod m)
//
// IRFFT inverts the untangling exactly: conj(X[m−k]) = E[k] − w^k·O[k], so
// E and O recover by half-sum/half-difference and z = IFFT_m(E + i·O).
// Odd lengths fall back to the full complex transform (Bluestein underneath)
// and return the same half-spectrum shape.

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// rfftPlan caches the length-dependent setup for a real transform of length
// n: the untangle twiddles w^k (k = 0..n/2).
type rfftPlan struct {
	n int
	w []complex128 // w[k] = exp(-2πi·k/n), read-only
}

var (
	rfftMu    sync.Mutex
	rfftPlans = map[int]*rfftPlan{}
)

func rfftPlanFor(n int) *rfftPlan {
	rfftMu.Lock()
	p, ok := rfftPlans[n]
	rfftMu.Unlock()
	if ok {
		return p
	}
	m := n / 2
	w := make([]complex128, m+1)
	for k := 0; k <= m; k++ {
		w[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	p = &rfftPlan{n: n, w: w}
	rfftMu.Lock()
	if prior, ok := rfftPlans[n]; ok {
		p = prior // concurrent builders produce identical plans; keep one
	} else {
		rfftPlans[n] = p
	}
	rfftMu.Unlock()
	return p
}

// rfftEven is the even-length transform core of RFFTInto: pack x into the m-point work buffer z, transform, untangle into out
// (length m+1). The untangle loop is written without the modular indexing of
// the textbook formulation — bins 0 and m both read Z[0], interior bins read
// Z[k] and Z[m-k] directly — with arithmetic identical operation for
// operation, so the results are bit-identical.
func rfftEven(out []complex128, x []float64, z []complex128, p *rfftPlan) {
	m := len(x) / 2
	for j := 0; j < m; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	Z := z
	if m&(m-1) == 0 {
		fftRadix2(Z, false)
	} else {
		Z = bluestein(Z, false)
	}
	w := p.w
	z0 := Z[0]
	c0 := cmplx.Conj(z0)
	e0 := (z0 + c0) * 0.5
	o0 := (z0 - c0) * complex(0, -0.5)
	out[0] = e0 + w[0]*o0
	for k := 1; k < m; k++ {
		zk := Z[k]
		zmk := cmplx.Conj(Z[m-k])
		e := (zk + zmk) * 0.5
		o := (zk - zmk) * complex(0, -0.5)
		out[k] = e + w[k]*o
	}
	out[m] = e0 + w[m]*o0
}

// RFFT transforms a real signal and returns the non-redundant half spectrum,
// bins 0..N/2 inclusive (the remaining bins of the full transform are the
// conjugate mirror). Even lengths cost one N/2-point complex transform; odd
// lengths fall back to the full transform. It allocates the result and the
// work buffer; RFFTInto is the same transform into caller-provided rows.
func RFFT(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	return RFFTInto(make([]complex128, n/2+1), x, make([]complex128, RFFTScratchLen(n)))
}

// RFFTScratchLen returns the scratch length RFFTInto needs for a real
// transform of length n (zero for odd lengths, which use the fallback path).
func RFFTScratchLen(n int) int {
	if n%2 != 0 {
		return 0
	}
	return n / 2
}

// RFFTInto is RFFT writing the half spectrum into dst — len(dst) must be
// n/2+1 — using a caller-provided work buffer of at least RFFTScratchLen(n)
// entries. Batch pipelines use it to keep whole generations of spectra in
// one contiguous slab with per-worker scratch; dst is returned.
func RFFTInto(dst []complex128, x []float64, scratch []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return dst[:0]
	}
	half := n/2 + 1
	if len(dst) != half {
		panic(fmt.Sprintf("dsp: RFFTInto dst of %d bins for length %d (want %d)", len(dst), n, half))
	}
	if n%2 != 0 {
		spec := FFTReal(x)
		copy(dst, spec[:half])
		return dst
	}
	m := n / 2
	if len(scratch) < m {
		panic(fmt.Sprintf("dsp: RFFTInto scratch of %d for length %d (want %d)", len(scratch), n, m))
	}
	rfftEven(dst, x, scratch[:m], rfftPlanFor(n))
	return dst
}

// IRFFT inverts RFFT: given the half spectrum of a real signal of length n
// (len(spec) must be n/2+1) it returns the time-domain signal, normalized
// by 1/n to match IFFT. It allocates the result and the work buffer;
// IRFFTInto is the same inversion into caller-provided rows.
func IRFFT(spec []complex128, n int) []float64 {
	if n == 0 {
		return nil
	}
	return IRFFTInto(make([]float64, n), spec, n, make([]complex128, RFFTScratchLen(n)))
}

// IRFFTInto is IRFFT writing the time-domain signal into dst — len(dst)
// must be n — using a caller-provided work buffer of at least
// RFFTScratchLen(n) entries. Batched response paths (the V_MIN ladder) use
// it to keep every per-supply inversion in per-worker slab rows; dst is
// returned.
func IRFFTInto(dst []float64, spec []complex128, n int, scratch []complex128) []float64 {
	if n == 0 {
		return dst[:0]
	}
	half := n/2 + 1
	if len(spec) != half {
		panic(fmt.Sprintf("dsp: IRFFTInto of %d bins for length %d (want %d)", len(spec), n, half))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: IRFFTInto dst of %d for length %d", len(dst), n))
	}
	if n%2 != 0 {
		// Odd lengths fall back to the full complex transform.
		full := make([]complex128, n)
		copy(full, spec)
		for k := half; k < n; k++ {
			full[k] = cmplx.Conj(spec[n-k])
		}
		for i, c := range IFFT(full) {
			dst[i] = real(c)
		}
		return dst
	}
	m := n / 2
	if len(scratch) < m {
		panic(fmt.Sprintf("dsp: IRFFTInto scratch of %d for length %d (want %d)", len(scratch), n, m))
	}
	p := rfftPlanFor(n)
	z := scratch[:m]
	for k := 0; k < m; k++ {
		xk := spec[k]
		xmk := cmplx.Conj(spec[m-k])
		e := (xk + xmk) * 0.5
		o := (xk - xmk) * 0.5 * cmplx.Conj(p.w[k])
		z[k] = e + complex(0, 1)*o
	}
	Z := z
	if m&(m-1) == 0 {
		fftRadix2(Z, true)
	} else {
		Z = bluestein(Z, true)
	}
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(Z[j]) * inv
		dst[2*j+1] = imag(Z[j]) * inv
	}
	return dst
}

// CAbs returns |c| without the overflow/underflow guards of cmplx.Abs —
// appropriate for spectra whose magnitudes are nowhere near the float64
// range limits, and measurably cheaper in per-bin loops.
func CAbs(c complex128) float64 {
	re, im := real(c), imag(c)
	return math.Sqrt(re*re + im*im)
}
