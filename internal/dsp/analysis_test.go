package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMSAndMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty Mean not 0")
	}
	x := []float64{3, -3, 3, -3}
	if got := Mean(x); got != 0 {
		t.Fatalf("Mean = %v, want 0", got)
	}
}

func TestMinMaxPeakToPeak(t *testing.T) {
	x := []float64{1, -2, 5, 0}
	min, max := MinMax(x)
	if min != -2 || max != 5 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	if p := PeakToPeak(x); p != 7 {
		t.Fatalf("PeakToPeak = %v", p)
	}
	if p := PeakToPeak([]float64{1}); p != 0 {
		t.Fatalf("PeakToPeak single = %v", p)
	}
}

func TestDBConversions(t *testing.T) {
	if got := DBm(1e-3); math.Abs(got) > 1e-12 {
		t.Fatalf("DBm(1mW) = %v, want 0", got)
	}
	if got := DBm(1); math.Abs(got-30) > 1e-12 {
		t.Fatalf("DBm(1W) = %v, want 30", got)
	}
	if !math.IsInf(DBm(0), -1) {
		t.Fatal("DBm(0) not -inf")
	}
	if got := FromDBm(30); math.Abs(got-1) > 1e-12 {
		t.Fatalf("FromDBm(30) = %v, want 1", got)
	}
}

// Property: DBm and FromDBm are inverses on positive powers.
func TestDBmRoundTripProperty(t *testing.T) {
	prop := func(p float64) bool {
		// Constrain to a physically plausible power range (fW to kW);
		// extreme magnitudes lose precision in the pow/log round trip.
		w := math.Mod(math.Abs(p), 18)
		w = math.Pow(10, w-15) * 1e3
		back := FromDBm(DBm(w))
		return math.Abs(back-w) < 1e-9*w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPeaks(t *testing.T) {
	freqs := []float64{0, 1, 2, 3, 4, 5}
	amps := []float64{0, 5, 1, 7, 2, 3}
	peaks := FindPeaks(freqs, amps, 2)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3: %v", len(peaks), peaks)
	}
	if peaks[0].Freq != 3 || peaks[0].Amp != 7 {
		t.Fatalf("top peak = %+v, want freq 3 amp 7", peaks[0])
	}
	if peaks[1].Freq != 1 {
		t.Fatalf("second peak = %+v", peaks[1])
	}
	// Endpoint peak (index 5, amp 3) must be included.
	if peaks[2].Freq != 5 {
		t.Fatalf("endpoint peak missing: %+v", peaks)
	}
}

func TestFindPeaksMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	FindPeaks([]float64{1}, []float64{1, 2}, 0)
}

func TestMaxInBand(t *testing.T) {
	freqs := []float64{10, 20, 30, 40}
	amps := []float64{1, 9, 4, 100}
	f, a, ok := MaxInBand(freqs, amps, 15, 35)
	if !ok || f != 20 || a != 9 {
		t.Fatalf("MaxInBand = %v %v %v", f, a, ok)
	}
	if _, _, ok := MaxInBand(freqs, amps, 50, 60); ok {
		t.Fatal("MaxInBand found a value outside the band")
	}
}

func TestResample(t *testing.T) {
	y := []float64{0, 1, 2, 3}
	// Same rate round-trip.
	out := Resample(y, 1, 1, 4)
	for i := range y {
		if out[i] != y[i] {
			t.Fatalf("identity resample differs at %d", i)
		}
	}
	// Interpolate midpoints.
	out = Resample(y, 1, 0.5, 7)
	if out[1] != 0.5 || out[3] != 1.5 {
		t.Fatalf("midpoint resample = %v", out)
	}
	// Beyond the end holds the last value.
	out = Resample(y, 1, 1, 6)
	if out[5] != 3 {
		t.Fatalf("extrapolation = %v, want 3", out[5])
	}
	// Empty input yields zeros.
	out = Resample(nil, 1, 1, 3)
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty input resample not zero")
		}
	}
}

// Property: resampling a linear ramp at any finer step stays on the ramp.
func TestResampleLinearProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slope := r.NormFloat64()
		n := 10 + r.Intn(50)
		y := make([]float64, n)
		for i := range y {
			y[i] = slope * float64(i)
		}
		dtOut := 0.1 + r.Float64()
		m := int(float64(n-1) / dtOut)
		if m < 2 {
			return true
		}
		out := Resample(y, 1, dtOut, m)
		for i := 0; i < m; i++ {
			want := slope * float64(i) * dtOut
			if math.Abs(out[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
