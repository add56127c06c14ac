package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x; 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MinMax returns the smallest and largest values of x.
// It panics on an empty slice.
func MinMax(x []float64) (min, max float64) {
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// PeakToPeak returns max(x) - min(x); 0 for slices shorter than 2.
func PeakToPeak(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	min, max := MinMax(x)
	return max - min
}

// DBm converts power in watts to dBm. Non-positive inputs map to -inf.
func DBm(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(watts/1e-3)
}

// FromDBm converts dBm back to watts.
func FromDBm(dbm float64) float64 {
	return 1e-3 * math.Pow(10, dbm/10)
}

// Peak describes a local maximum in a spectrum.
type Peak struct {
	Bin  int
	Freq float64
	Amp  float64
}

// FindPeaks returns local maxima of amps (with freqs as the x-axis) whose
// amplitude is at least minAmp, sorted by descending amplitude. Endpoints
// qualify if they exceed their single neighbour.
func FindPeaks(freqs, amps []float64, minAmp float64) []Peak {
	if len(amps) != len(freqs) {
		panic("dsp: FindPeaks length mismatch")
	}
	var peaks []Peak
	for i := range amps {
		if amps[i] < minAmp {
			continue
		}
		left := i == 0 || amps[i] > amps[i-1]
		right := i == len(amps)-1 || amps[i] >= amps[i+1]
		if left && right {
			peaks = append(peaks, Peak{Bin: i, Freq: freqs[i], Amp: amps[i]})
		}
	}
	sort.Slice(peaks, func(a, b int) bool { return peaks[a].Amp > peaks[b].Amp })
	return peaks
}

// MaxInBand returns the highest amplitude (and its frequency) among bins
// with lo <= freq <= hi. ok is false if no bin falls in the band.
func MaxInBand(freqs, amps []float64, lo, hi float64) (freq, amp float64, ok bool) {
	amp = math.Inf(-1)
	for i, f := range freqs {
		if f < lo || f > hi {
			continue
		}
		if amps[i] > amp {
			freq, amp, ok = f, amps[i], true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return freq, amp, true
}

// Resample linearly interpolates the samples y (uniformly spaced with step
// dtIn starting at t=0) onto a new uniform grid with step dtOut and n points.
// Points beyond the input range hold the final value.
func Resample(y []float64, dtIn, dtOut float64, n int) []float64 {
	out := make([]float64, n)
	if len(y) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		t := float64(i) * dtOut
		pos := t / dtIn
		k := int(pos)
		if k >= len(y)-1 {
			out[i] = y[len(y)-1]
			continue
		}
		frac := pos - float64(k)
		out[i] = y[k]*(1-frac) + y[k+1]*frac
	}
	return out
}
