package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func randomSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Fatalf("FFT(nil) = %v", got)
	}
	got := FFT([]complex128{3 + 4i})
	if len(got) != 1 || got[0] != 3+4i {
		t.Fatalf("FFT single = %v", got)
	}
}

func TestFFTMatchesNaivePowersOfTwo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randomSignal(r, n)
		if e := maxErr(FFT(x), naiveDFT(x)); e > 1e-8 {
			t.Fatalf("n=%d: FFT differs from naive DFT by %g", n, e)
		}
	}
}

func TestFFTMatchesNaiveArbitraryLengths(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 30, 100, 101} {
		x := randomSignal(r, n)
		if e := maxErr(FFT(x), naiveDFT(x)); e > 1e-7 {
			t.Fatalf("n=%d: Bluestein FFT differs from naive DFT by %g", n, e)
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randomSignal(r, 33)
	orig := make([]complex128, len(x))
	copy(orig, x)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT modified its input")
		}
	}
}

// Property: IFFT(FFT(x)) == x for arbitrary lengths.
func TestFFTInverseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		x := randomSignal(r, n)
		y := IFFT(FFT(x))
		return maxErr(x, y) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval's theorem, sum |x|^2 == sum |X|^2 / N.
func TestParsevalProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(128)
		x := randomSignal(r, n)
		var te float64
		for _, v := range x {
			te += real(v)*real(v) + imag(v)*imag(v)
		}
		var fe float64
		for _, v := range FFT(x) {
			fe += real(v)*real(v) + imag(v)*imag(v)
		}
		fe /= float64(n)
		return math.Abs(te-fe) < 1e-6*(1+te)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		a := randomSignal(r, n)
		b := randomSignal(r, n)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+alpha*fb[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAmplitudeSpectrumPureTone(t *testing.T) {
	const fs = 1000.0
	const n = 1000
	const f0 = 50.0 // exactly bin 50
	const amp = 2.5
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Sin(2*math.Pi*f0*float64(i)/fs)
	}
	freqs, amps := AmplitudeSpectrum(x, fs)
	k := FreqBin(f0, n, fs)
	if math.Abs(freqs[k]-f0) > 1e-9 {
		t.Fatalf("bin %d freq = %v, want %v", k, freqs[k], f0)
	}
	if math.Abs(amps[k]-amp) > 1e-6 {
		t.Fatalf("amplitude at f0 = %v, want %v", amps[k], amp)
	}
	// All other bins should be near zero.
	for i := range amps {
		if i == k {
			continue
		}
		if amps[i] > 1e-6 {
			t.Fatalf("leakage at bin %d: %v", i, amps[i])
		}
	}
}

func TestAmplitudeSpectrumDC(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	_, amps := AmplitudeSpectrum(x, 4)
	if math.Abs(amps[0]-3) > 1e-12 {
		t.Fatalf("DC amplitude = %v, want 3", amps[0])
	}
}

func TestAmplitudeSpectrumEmpty(t *testing.T) {
	f, a := AmplitudeSpectrum(nil, 1)
	if f != nil || a != nil {
		t.Fatal("empty input should give nil spectra")
	}
}

func TestFreqBinClamps(t *testing.T) {
	if k := FreqBin(-5, 100, 100); k != 0 {
		t.Fatalf("negative freq bin = %d", k)
	}
	if k := FreqBin(1e9, 100, 100); k != 50 {
		t.Fatalf("over-Nyquist bin = %d, want 50", k)
	}
}

func TestBinFreq(t *testing.T) {
	if f := BinFreq(10, 100, 1000); f != 100 {
		t.Fatalf("BinFreq = %v, want 100", f)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(0, 1); err == nil {
		t.Fatal("Validate(0, 1) passed")
	}
	if err := Validate(4, 0); err == nil {
		t.Fatal("Validate(4, 0) passed")
	}
	if err := Validate(4, math.NaN()); err == nil {
		t.Fatal("Validate with NaN fs passed")
	}
	if err := Validate(4, 1); err != nil {
		t.Fatalf("Validate(4, 1) failed: %v", err)
	}
}

// fftRadix2Ref is the stage-by-stage radix-2 kernel that fftRadix2's fused
// stage pairs replaced, kept verbatim as the bit-identity reference.
func fftRadix2Ref(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := stageTwiddles(size, inverse)[:half]
		for start := 0; start < n; start += size {
			// Split the block into its two halves so the inner loop indexes
			// three equal-length slices by k alone; the compiler then proves
			// every access in bounds and drops the checks. The butterfly
			// arithmetic is unchanged operation for operation.
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k := range tw {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// TestFFTRadix2MatchesStageByStage: the fused stage pairs must reproduce
// the stage-by-stage kernel bit for bit at every power of two up to 2^15,
// both directions. Besides normal values the inputs mix in signed zeros,
// subnormals and values near the ends of the exponent range. Inputs made
// only of signed zeros keep every value exactly zero, so a dropped
// multiply by 1+0i, which can flip the sign of a zero, shows.
func TestFFTRadix2MatchesStageByStage(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 5e-324, -3e-310, 1e150, -1e-150, 1e-150, -1e150}
	signed := []float64{0, negZero}
	r := rand.New(rand.NewSource(19))
	pick := func(vals []float64) float64 { return vals[r.Intn(len(vals))] }
	for logn := 0; logn <= 15; logn++ {
		n := 1 << logn
		mixed := make([]complex128, n)
		zeros := make([]complex128, n)
		for i := range mixed {
			re, im := r.NormFloat64(), r.NormFloat64()
			switch i % 4 {
			case 1:
				re = pick(special)
			case 2:
				im = pick(special)
			case 3:
				re, im = pick(special), pick(special)
			}
			mixed[i] = complex(re, im)
			zeros[i] = complex(pick(signed), pick(signed))
		}
		for _, x := range [][]complex128{mixed, zeros} {
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), x...)
				want := append([]complex128(nil), x...)
				fftRadix2(got, inverse)
				fftRadix2Ref(want, inverse)
				for i := range got {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("n=%d inverse=%v: bin %d = %v, stage-by-stage %v", n, inverse, i, got[i], want[i])
					}
				}
			}
		}
	}
}
