package em

import "fmt"

// DefaultPath, ReceivedPower and ReceivedSpectrum are the per-bin path
// model the tests hold CombineInto's folded coefficients against, bit for
// bit.

// DefaultPath returns a coupling path calibrated for a mobile SoC measured
// at 7 cm: a dI/dt virus's ~0.5 A resonant current at ~70 MHz lands around
// -30 dBm, well above the analyzer noise floor.
func DefaultPath() Path {
	return Path{DistanceM: 0.07, CouplingK: 1e-5, RefHz: 100e6, RefDistanceM: 0.07}
}

// ReceivedPower returns the power in watts the antenna receives at
// frequency f when the feed (package-inductor) current oscillates with
// amplitude iAmp at that frequency.
func (p Path) ReceivedPower(ant Antenna, f, iAmp float64) float64 {
	if f <= 0 || iAmp <= 0 {
		return 0
	}
	// Near-field magnetic coupling rolls off as 1/d^6 in power (1/d^3 in
	// field) for a small loop.
	d := p.RefDistanceM / p.DistanceM
	dist := d * d * d
	fr := f / p.RefHz
	return p.CouplingK * fr * fr * iAmp * iAmp * dist * dist * ant.Gain(f)
}

// ReceivedSpectrum converts a feed-current amplitude spectrum into a
// received-power spectrum in watts, bin by bin.
func (p Path) ReceivedSpectrum(ant Antenna, freqs, iAmp []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ant.Validate(); err != nil {
		return nil, err
	}
	if len(freqs) != len(iAmp) {
		return nil, fmt.Errorf("em: spectrum length mismatch %d vs %d", len(freqs), len(iAmp))
	}
	out := make([]float64, len(freqs))
	for i := range freqs {
		out[i] = p.ReceivedPower(ant, freqs[i], iAmp[i])
	}
	return out, nil
}
