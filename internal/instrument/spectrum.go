// Package instrument simulates the measurement equipment of the paper's
// Section 4: spectrum analyzers (Agilent E4402B / N9342C class) fed by the
// loop antenna, the Juno's on-chip digital storage oscilloscope (OC-DSO),
// a bench oscilloscope with differential probes on the AMD Kelvin pads,
// and the synthetic current load (SCL) block.
//
// Instruments are intentionally imperfect: they re-bin onto their
// resolution bandwidth, add a noise floor and per-sweep measurement noise,
// band-limit, and quantize — so measurement-driven loops (the GA) face the
// same jitter the real methodology does, and the paper's 30-sample
// averaging is actually necessary.
//
// Noise model: every instrument draws its measurement noise from a
// deterministic stream derived from (instrument seed, content hash of the
// request, sample index) — see internal/detrand. Measuring the same signal
// always yields the same reading no matter how many other measurements ran
// before it or on which goroutine, which makes the instruments lock-free
// and lets the GA and the sweeps evaluate concurrently with bit-identical
// results at any parallelism setting.
package instrument

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/detrand"
	"repro/internal/dsp"
)

// SpectrumAnalyzer models a swept-tuned analyzer.
type SpectrumAnalyzer struct {
	Model         string
	StartHz       float64
	StopHz        float64
	RBWHz         float64 // resolution bandwidth: power integrates per RBW bin
	NoiseFloorDBm float64
	NoiseSigmaDB  float64 // per-bin Gaussian measurement noise, in dB

	seed int64 // base of the per-request noise streams
}

// NewSpectrumAnalyzer returns an analyzer spanning [startHz, stopHz] with
// the given resolution bandwidth. The seed fixes the measurement-noise
// stream so experiments are reproducible.
func NewSpectrumAnalyzer(model string, startHz, stopHz, rbwHz float64, seed int64) (*SpectrumAnalyzer, error) {
	if startHz < 0 || stopHz <= startHz || rbwHz <= 0 {
		return nil, fmt.Errorf("instrument: invalid span [%v, %v] rbw %v", startHz, stopHz, rbwHz)
	}
	return &SpectrumAnalyzer{
		Model:         model,
		StartHz:       startHz,
		StopHz:        stopHz,
		RBWHz:         rbwHz,
		NoiseFloorDBm: -90,
		NoiseSigmaDB:  0.8,
		seed:          seed,
	}, nil
}

// Seed returns the base of the analyzer's measurement-noise streams.
func (sa *SpectrumAnalyzer) Seed() int64 { return sa.seed }

// ContentHash identifies the analyzer's complete measurement behaviour:
// every reading is a deterministic function of (signal, these parameters,
// seed), so two analyzers with equal hashes produce bit-identical readings
// and a persisted measurement may be replayed for either. The unexported
// noise seed is included — two analyzers differing only in seed measure
// different values.
func (sa *SpectrumAnalyzer) ContentHash() uint64 {
	h := detrand.NewHash()
	h.String(sa.Model)
	h.Float64(sa.StartHz)
	h.Float64(sa.StopHz)
	h.Float64(sa.RBWHz)
	h.Float64(sa.NoiseFloorDBm)
	h.Float64(sa.NoiseSigmaDB)
	h.Uint64(uint64(sa.seed))
	return h.Sum()
}

// Sweep is one analyzer trace.
type Sweep struct {
	Freqs []float64 // RBW bin centres, Hz
	DBm   []float64 // measured power per bin
}

// PeakInBand returns the strongest bin within [lo, hi].
func (s *Sweep) PeakInBand(lo, hi float64) (freq, dbm float64, ok bool) {
	dbm = math.Inf(-1)
	for i, f := range s.Freqs {
		if f < lo || f > hi {
			continue
		}
		if s.DBm[i] > dbm {
			freq, dbm, ok = f, s.DBm[i], true
		}
	}
	return freq, dbm, ok
}

// Capture performs one sweep over an incident power spectrum (freqs in Hz,
// powers in watts, e.g. from em.CombinedSpectrum): incident power is summed
// into RBW bins, the noise floor is added, and per-bin measurement noise is
// applied. The noise is a deterministic function of the analyzer seed and
// the spectrum content, so capturing the same signal twice gives the same
// trace; MeasurePeak varies the sample index to model sweep-to-sweep noise.
func (sa *SpectrumAnalyzer) Capture(freqs, watts []float64) (*Sweep, error) {
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	rng := detrand.NewSplitmix(sa.seed, detrand.HashFloats(freqs, watts), 0)
	return sa.capture(freqs, watts, &rng), nil
}

// nBins returns the analyzer's RBW bin count.
func (sa *SpectrumAnalyzer) nBins() int {
	n := int(math.Ceil((sa.StopHz - sa.StartHz) / sa.RBWHz))
	if n < 1 {
		n = 1
	}
	return n
}

// binOf returns the RBW bin incident power at f sums into, or -1 when f
// lies outside the span.
func (sa *SpectrumAnalyzer) binOf(f float64) int {
	if f < sa.StartHz || f >= sa.StopHz {
		return -1
	}
	return int((f - sa.StartHz) / sa.RBWHz)
}

// rebin sums the incident spectrum into the analyzer's RBW bins.
func (sa *SpectrumAnalyzer) rebin(freqs, watts []float64) []float64 {
	acc := make([]float64, sa.nBins())
	for i, f := range freqs {
		if bin := sa.binOf(f); bin >= 0 && bin < len(acc) {
			acc[bin] += watts[i]
		}
	}
	return acc
}

// freqVote is one per-sweep peak-bin tally. A short slice replaces the
// map: samples is small (3–30), so a linear scan is cheaper than hashing
// and the winner — highest count, ties to the lowest frequency — is the
// same either way.
type freqVote struct {
	f float64
	n int
}

// peakScratch carries MeasurePeak's per-call buffers between calls, so a
// sweep campaign's measurement loop allocates only its Measurement: the
// re-binned power, the per-bin dBm bounds, one sample's noise draws, the
// per-sweep peaks and the peak-bin votes. The buffers grow monotonically
// toward the widest band measured, after which every call reuses them.
type peakScratch struct {
	acc, lb, ub, u, g []float64
	peaks             []float64
	votes             []freqVote
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

var peakScratchPool = sync.Pool{New: func() any { return new(peakScratch) }}

// BinCenters returns the center frequencies of n RBW bins starting at
// startHz. It is the single definition of the analyzer's frequency grid:
// capture uses it to label sweeps, and the lab client uses it to
// reconstruct a remote sweep's Freqs from (n, startHz, rbwHz) alone —
// bit-identically, because both sides evaluate the same expression on the
// same operands.
func BinCenters(startHz, rbwHz float64, n int) []float64 {
	freqs := make([]float64, n)
	for b := 0; b < n; b++ {
		freqs[b] = startHz + (float64(b)+0.5)*rbwHz
	}
	return freqs
}

// noiseSource is the per-bin draw pair a sweep consumes, in bin order.
// The analyzer draws from a detrand.Splitmix; a math/rand stream over the
// same generator yields the same values.
type noiseSource interface {
	Float64() float64
	NormFloat64() float64
}

// capture is the noise-source-explicit full sweep behind Capture.
func (sa *SpectrumAnalyzer) capture(freqs, watts []float64, rng noiseSource) *Sweep {
	acc := sa.rebin(freqs, watts)
	nBins := len(acc)
	sweep := &Sweep{Freqs: BinCenters(sa.StartHz, sa.RBWHz, nBins), DBm: make([]float64, nBins)}
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	for b := 0; b < nBins; b++ {
		p := acc[b] + floor*(0.5+rng.Float64())
		sweep.DBm[b] = dsp.DBm(p) + rng.NormFloat64()*sa.NoiseSigmaDB
	}
	return sweep
}

// Measurement is the paper's GA fitness observable: the peak amplitude in a
// band, averaged over repeated sweeps ("the metric used for maximum EM
// amplitude is the mean root square of 30 samples", Section 3.1).
type Measurement struct {
	PeakDBm  float64 // RMS-averaged peak power
	PeakHz   float64 // dominant frequency (mode of the per-sweep peaks)
	Samples  int
	StdevDBm float64
}

// MeasurePeak takes samples sweeps over the incident spectrum and returns
// the averaged in-band peak. The dominant frequency is the most frequent
// per-sweep peak bin, which rejects occasional noise-floor wins.
func (sa *SpectrumAnalyzer) MeasurePeak(freqs, watts []float64, lo, hi float64, samples int) (*Measurement, error) {
	if samples < 1 {
		return nil, fmt.Errorf("instrument: need at least 1 sample, got %d", samples)
	}
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	// Banded sweep, bit-identical to a full capture + PeakInBand: the noise
	// stream is consumed strictly in bin order, so bins past the band's
	// upper edge — whose draws come after every in-band draw — can be
	// skipped outright (the rebin never even accumulates them), and bins
	// below the lower edge consume their two draws but skip the dBm
	// conversion.
	nBins := sa.nBins()
	bLimit := 0
	for bLimit < nBins && sa.StartHz+(float64(bLimit)+0.5)*sa.RBWHz <= hi {
		bLimit++
	}
	bLo := 0
	for bLo < bLimit && sa.StartHz+(float64(bLo)+0.5)*sa.RBWHz < lo {
		bLo++
	}
	sc := peakScratchPool.Get().(*peakScratch)
	defer peakScratchPool.Put(sc)
	sc.acc = grow(sc.acc, bLimit)
	acc := sc.acc // noise-independent; shared by all samples
	clear(acc)
	// One pass over the spectrum both re-bins it and folds the watts into
	// the noise-identity hash. The frequency grid is a long-lived axis
	// shared by every measurement on a platform, so its hash-state prefix
	// is memoized and resumed here.
	h := detrand.HashFrom(detrand.GridState(freqs))
	h.Int(len(watts))
	for i, w := range watts {
		h.Float64(w)
		if bin := sa.binOf(freqs[i]); bin >= 0 && bin < len(acc) {
			acc[bin] += w
		}
	}
	content := h.Sum()

	// Per-bin dBm bounds over every floor draw u in [0, 1): the noisy power
	// acc+floor*(0.5+u) lies in [acc+0.5*floor, acc+1.5*floor], and dBm is
	// monotone. The slack absorbs the last-ulp wobble of the logarithm.
	const slackDB = 1e-6
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	sc.lb, sc.ub = grow(sc.lb, bLimit), grow(sc.ub, bLimit)
	lb, ub := sc.lb, sc.ub
	for b := bLo; b < bLimit; b++ {
		lb[b] = dsp.DBm(acc[b]+floor*0.5) - slackDB
		ub[b] = dsp.DBm(acc[b]+floor*1.5) + slackDB
	}
	sc.u, sc.g = grow(sc.u, bLimit), grow(sc.g, bLimit)
	u, g := sc.u, sc.g
	sigma := sa.NoiseSigmaDB
	peaks := sc.peaks[:0]
	votes := sc.votes[:0]
	defer func() { sc.peaks, sc.votes = peaks, votes }()
	for s := 0; s < samples; s++ {
		rng := detrand.NewSplitmix(sa.seed, content, uint64(s))
		rng.Pairs(u, g)
		// best is a reading some bin is guaranteed to reach, so a bin whose
		// upper bound falls short of it cannot hold (or tie) the peak; the
		// survivors get the exact reading, scanned in bin order.
		best := math.Inf(-1)
		for b := bLo; b < bLimit; b++ {
			if v := lb[b] + g[b]*sigma; v > best {
				best = v
			}
		}
		peakF, peakDBm, ok := 0.0, math.Inf(-1), false
		for b := bLo; b < bLimit; b++ {
			if ub[b]+g[b]*sigma < best {
				continue
			}
			dbm := dsp.DBm(acc[b]+floor*(0.5+u[b])) + g[b]*sigma
			if dbm > peakDBm {
				peakF, peakDBm, ok = sa.StartHz+(float64(b)+0.5)*sa.RBWHz, dbm, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("instrument: band [%v, %v] outside analyzer span", lo, hi)
		}
		peaks = append(peaks, peakDBm)
		voted := false
		for i := range votes {
			if votes[i].f == peakF {
				votes[i].n++
				voted = true
				break
			}
		}
		if !voted {
			votes = append(votes, freqVote{f: peakF, n: 1})
		}
	}
	// RMS in linear power terms, reported in dBm.
	var sum float64
	for _, dbm := range peaks {
		w := dsp.FromDBm(dbm)
		sum += w * w
	}
	rms := math.Sqrt(sum / float64(samples))
	mean := dsp.Mean(peaks)
	var varAcc float64
	for _, dbm := range peaks {
		varAcc += (dbm - mean) * (dbm - mean)
	}
	var domFreq float64
	best := -1
	for _, v := range votes {
		if v.n > best || (v.n == best && v.f < domFreq) {
			domFreq, best = v.f, v.n
		}
	}
	return &Measurement{
		PeakDBm:  dsp.DBm(rms),
		PeakHz:   domFreq,
		Samples:  samples,
		StdevDBm: math.Sqrt(varAcc / float64(samples)),
	}, nil
}
