package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// rfftLengths covers the shapes the pipeline produces: powers of two (the
// analysis grid), even non-powers (scope resamples), odd lengths (Bluestein
// fallback) and the degenerate edges.
var rfftLengths = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 17, 64, 96, 100, 101, 255, 256, 1000, 1024, 4096}

func randSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	return x
}

// TestRFFTMatchesFFTReal: the half spectrum must agree with the reference
// full complex transform to within a few ulps of the spectrum scale.
func TestRFFTMatchesFFTReal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range rfftLengths {
		for trial := 0; trial < 3; trial++ {
			x := randSignal(rng, n)
			want := FFTReal(x)
			got := RFFT(x)
			if len(got) != n/2+1 {
				t.Fatalf("n=%d: %d bins, want %d", n, len(got), n/2+1)
			}
			// Tolerance relative to the largest magnitude: the packed and
			// full transforms associate additions differently.
			scale := 0.0
			for _, c := range want {
				if a := CAbs(c); a > scale {
					scale = a
				}
			}
			tol := 1e-12 * (scale + 1)
			for k, g := range got {
				if d := CAbs(g - want[k]); d > tol {
					t.Fatalf("n=%d bin %d: RFFT %v vs FFTReal %v (|Δ|=%g > %g)", n, k, g, want[k], d, tol)
				}
			}
		}
	}
}

// TestIRFFTRoundTrip: IRFFT(RFFT(x), n) must reproduce x.
func TestIRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range rfftLengths {
		x := randSignal(rng, n)
		scale := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		y := IRFFT(RFFT(x), n)
		if len(y) != n {
			t.Fatalf("n=%d: round trip length %d", n, len(y))
		}
		tol := 1e-12 * (scale + 1)
		for i := range x {
			if d := math.Abs(y[i] - x[i]); d > tol {
				t.Fatalf("n=%d sample %d: %v -> %v (|Δ|=%g > %g)", n, i, x[i], y[i], d, tol)
			}
		}
	}
}

// TestIRFFTMatchesIFFT: IRFFT must agree with the reference inverse of the
// reconstructed full conjugate-symmetric spectrum.
func TestIRFFTMatchesIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range rfftLengths {
		x := randSignal(rng, n)
		half := RFFT(x)
		full := FFTReal(x)
		ref := IFFT(full)
		got := IRFFT(half, n)
		tol := 1e-12
		for _, v := range x {
			if a := math.Abs(v); a*1e-12 > tol {
				tol = a * 1e-12
			}
		}
		for i := range got {
			if d := math.Abs(got[i] - real(ref[i])); d > tol {
				t.Fatalf("n=%d sample %d: IRFFT %v vs IFFT %v", n, i, got[i], real(ref[i]))
			}
		}
	}
}

// TestRFFTDeterministic: repeated transforms of the same input are
// bit-identical (the cached plans must not leak state between calls).
func TestRFFTDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{64, 100, 101, 1024} {
		x := randSignal(rng, n)
		a := RFFT(x)
		// Transform unrelated signals in between.
		RFFT(randSignal(rng, n))
		IRFFT(a, n)
		b := RFFT(x)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("n=%d bin %d: %v != %v across calls", n, k, a[k], b[k])
			}
		}
	}
}

// TestCAbs: the unguarded magnitude agrees with the naive definition.
func TestCAbs(t *testing.T) {
	for _, c := range []complex128{0, 1, -2i, complex(3, -4), complex(1e-30, 2e-30), complex(-1e20, 5e19)} {
		want := math.Sqrt(real(c)*real(c) + imag(c)*imag(c))
		if got := CAbs(c); got != want {
			t.Fatalf("CAbs(%v) = %v, want %v", c, got, want)
		}
	}
	if CAbs(complex(3, 4)) != 5 {
		t.Fatal("CAbs(3+4i) != 5")
	}
}

func BenchmarkRFFT8192(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randSignal(rng, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RFFT(x)
	}
}

func BenchmarkFFTReal8192(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randSignal(rng, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTReal(x)
	}
}

// dirtyComplexes returns a row of n NaNs, standing in for a recycled slab
// row that still holds another item's values.
func dirtyComplexes(n int) []complex128 {
	row := make([]complex128, n)
	for i := range row {
		row[i] = complex(math.NaN(), math.NaN())
	}
	return row
}

// TestRFFTIntoBitIdentical: the slab-row variant must reproduce RFFT bit for
// bit at every length when its destination and scratch rows hold stale
// values, as recycled batch arena rows do — the batch evaluation path's
// bit-identity to the per-individual path rests on it.
func TestRFFTIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range rfftLengths {
		x := randSignal(rng, n)
		want := RFFT(x)
		got := RFFTInto(dirtyComplexes(n/2+1), x, dirtyComplexes(RFFTScratchLen(n)))
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d bins, want %d", n, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("n=%d bin %d: RFFTInto %v != RFFT %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestIRFFTIntoBitIdentical: the slab-row inverse must reproduce IRFFT bit
// for bit at every length when its destination and scratch rows hold stale
// values — the V_MIN ladder reuses both rows on every rung.
func TestIRFFTIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range rfftLengths {
		spec := RFFT(randSignal(rng, n))
		want := IRFFT(spec, n)
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.NaN()
		}
		got := IRFFTInto(dst, spec, n, dirtyComplexes(RFFTScratchLen(n)))
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d samples, want %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d sample %d: IRFFTInto %v != IRFFT %v", n, i, got[i], want[i])
			}
		}
	}
}
