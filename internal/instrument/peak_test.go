package instrument

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/detrand"
	"repro/internal/dsp"
)

// measurePeakRef is MeasurePeak's straightforward per-bin form: every
// sample draws a fresh math/rand stream and converts every in-band bin to
// dBm. MeasurePeak must reproduce it bit for bit.
func (sa *SpectrumAnalyzer) measurePeakRef(freqs, watts []float64, lo, hi float64, samples int) (*Measurement, error) {
	if samples < 1 {
		return nil, fmt.Errorf("instrument: need at least 1 sample, got %d", samples)
	}
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	h := detrand.HashFloats(freqs, watts)
	acc := sa.rebin(freqs, watts)
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	var peaks []float64
	votes := map[float64]int{}
	for s := 0; s < samples; s++ {
		rng := detrand.Stream(sa.seed, h, uint64(s))
		peakF, peakDBm, ok := 0.0, math.Inf(-1), false
		for b := 0; b < len(acc); b++ {
			f := sa.StartHz + (float64(b)+0.5)*sa.RBWHz
			if f > hi {
				break
			}
			u := rng.Float64()
			g := rng.NormFloat64()
			if f < lo {
				continue
			}
			dbm := dsp.DBm(acc[b]+floor*(0.5+u)) + g*sa.NoiseSigmaDB
			if dbm > peakDBm {
				peakF, peakDBm, ok = f, dbm, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("instrument: band [%v, %v] outside analyzer span", lo, hi)
		}
		peaks = append(peaks, peakDBm)
		votes[peakF]++
	}
	var sum float64
	for _, dbm := range peaks {
		w := dsp.FromDBm(dbm)
		sum += w * w
	}
	mean := dsp.Mean(peaks)
	var varAcc float64
	for _, dbm := range peaks {
		varAcc += (dbm - mean) * (dbm - mean)
	}
	var domFreq float64
	best := -1
	for f, n := range votes {
		if n > best || (n == best && f < domFreq) {
			domFreq, best = f, n
		}
	}
	return &Measurement{
		PeakDBm:  dsp.DBm(math.Sqrt(sum / float64(samples))),
		PeakHz:   domFreq,
		Samples:  samples,
		StdevDBm: math.Sqrt(varAcc / float64(samples)),
	}, nil
}

// peakedSpectrum returns an n-bin analysis grid spaced df Hz with a
// random background (below or above the analyzer's floor) and a few
// resonant peaks of random height and width.
func peakedSpectrum(rng *rand.Rand, n int, df float64) (freqs, watts []float64) {
	freqs = make([]float64, n)
	watts = make([]float64, n)
	type peak struct{ f, w, amp float64 }
	peaks := make([]peak, 1+rng.Intn(4))
	for i := range peaks {
		peaks[i] = peak{
			f:   df * float64(n) * rng.Float64(),
			w:   (0.5 + 10*rng.Float64()) * 1e6,
			amp: math.Pow(10, -12+6*rng.Float64()),
		}
	}
	background := math.Pow(10, -16+8*rng.Float64())
	for i := range freqs {
		freqs[i] = float64(i) * df
		watts[i] = background * rng.Float64()
		for _, p := range peaks {
			x := (freqs[i] - p.f) / p.w
			watts[i] += p.amp / (1 + x*x)
		}
	}
	return freqs, watts
}

func checkPeakMatchesRef(t *testing.T, sa *SpectrumAnalyzer, freqs, watts []float64, lo, hi float64, samples int) {
	t.Helper()
	m, err := sa.MeasurePeak(freqs, watts, lo, hi, samples)
	ref, refErr := sa.measurePeakRef(freqs, watts, lo, hi, samples)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("band [%v, %v] samples %d: error %v, reference %v", lo, hi, samples, err, refErr)
	}
	if err == nil && *m != *ref {
		t.Fatalf("band [%v, %v] samples %d:\ngot  %+v\nwant %+v", lo, hi, samples, *m, *ref)
	}
}

// TestMeasurePeakMatchesReference: the bound-pruned peak search and the
// batched noise draws must leave every reading — peak, dominant bin, RMS,
// spread, and errors — bit-identical to the per-bin reference.
func TestMeasurePeakMatchesReference(t *testing.T) {
	sa, err := NewSpectrumAnalyzer("ref", 9e3, 1.5e9, 1e6, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const df = 4e9 / 8192
	for trial := 0; trial < 300; trial++ {
		freqs, watts := peakedSpectrum(rng, 64+rng.Intn(4097), df)
		lo := 1.6e9 * rng.Float64()
		hi := lo + 300e6*rng.Float64()
		samples := 1 + rng.Intn(30)
		checkPeakMatchesRef(t, sa, freqs, watts, lo, hi, samples)
	}

	freqs, watts := peakedSpectrum(rng, 4097, df)
	zeros := make([]float64, len(freqs))
	for _, tc := range []struct {
		name    string
		watts   []float64
		lo, hi  float64
		samples int
	}{
		{"zero watts", zeros, 50e6, 200e6, 30},
		{"one sample", watts, 50e6, 200e6, 1},
		{"thirty samples", watts, 50e6, 200e6, 30},
		{"lo below span", watts, -1e9, 100e6, 5},
		{"hi past span", watts, 1.4e9, 9e9, 5},
		{"whole span", watts, 0, 2e9, 3},
		{"one-bin band", watts, 100e6, 100.9e6, 5},
		{"band between bins", watts, 100.6e6, 100.9e6, 5},
		{"band above span", watts, 1.6e9, 1.7e9, 5},
		{"band below span", watts, -2e6, -1e6, 5},
		{"zero samples", watts, 50e6, 200e6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPeakMatchesRef(t, sa, freqs, tc.watts, tc.lo, tc.hi, tc.samples)
		})
	}
	// Other analyzer settings: a coarse RBW and a floor well above the
	// background, and a span starting at a nonzero offset.
	coarse, _ := NewSpectrumAnalyzer("coarse", 30e6, 400e6, 3e6, 5)
	coarse.NoiseFloorDBm, coarse.NoiseSigmaDB = -60, 2.5
	for trial := 0; trial < 50; trial++ {
		freqs, watts := peakedSpectrum(rng, 1024, df)
		checkPeakMatchesRef(t, coarse, freqs, watts, 20e6+400e6*rng.Float64(), 450e6, 1+rng.Intn(30))
	}
	if _, err := sa.MeasurePeak(freqs, watts[1:], 50e6, 200e6, 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// BenchmarkMeasurePeak times the analyzer stage alone on the GA's
// measurement shape: a 4097-bin analysis grid (the bench's 8192-point RFFT
// at 4 GS/s) carrying a stress loop's spectrum — a resonant fundamental at
// 70 MHz with its harmonics over a broadband skirt above the analyzer's
// noise floor — measured over the 50-200 MHz first-order band with the
// paper's 30 samples.
func BenchmarkMeasurePeak(b *testing.B) {
	sa, err := NewSpectrumAnalyzer("agilent-e4402b", 9e3, 1.5e9, 1e6, 3)
	if err != nil {
		b.Fatal(err)
	}
	freqs := make([]float64, 4097)
	watts := make([]float64, len(freqs))
	for i := range freqs {
		f := float64(i) * 4e9 / 8192
		freqs[i] = f
		watts[i] = 1e-10 / (1 + f*f/1e16)
		for h := 1.0; h <= 4; h++ {
			x := (f - h*70e6) / 2e6
			watts[i] += 1e-6 / (h * h) / (1 + x*x)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sa.MeasurePeak(freqs, watts, 50e6, 200e6, 30); err != nil {
			b.Fatal(err)
		}
	}
}
