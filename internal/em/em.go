// Package em models the radiated-emission side channel the paper measures:
// the CPU's package and power grid act as a distributed transmitting
// antenna whose radiated power at a frequency varies quadratically with the
// amplitude of the oscillating feed current at that frequency (Section 2.2,
// Hertzian-dipole argument), and a small loop antenna a few centimetres
// from the die receives it.
//
// The feed current is the package-inductor current I_DIE computed by the
// PDN model; this package turns its spectrum into received power at the
// antenna, including the antenna's own frequency response (flat far below
// its 2.95 GHz self-resonance, Figure 6) and near-field distance roll-off.
package em

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/detrand"
)

// Antenna models the square-loop receiver used in the paper: a flat
// response across the 50-200 MHz band of interest with a self-resonance
// near 2.95 GHz.
type Antenna struct {
	SelfResonanceHz float64 `json:"self_resonance_hz"` // self-resonance frequency (2.95 GHz in Fig. 6)
	Q               float64 `json:"q"`                 // resonance quality factor
	FeedOhms        float64 `json:"feed_ohms"`         // feed-point resistance at resonance
	SystemOhms      float64 `json:"system_ohms"`       // reference impedance of the analyzer (50 ohm)
}

// DefaultLoopAntenna returns the 3 cm square-loop antenna of the paper.
func DefaultLoopAntenna() Antenna {
	return Antenna{SelfResonanceHz: 2.95e9, Q: 8, FeedOhms: 30, SystemOhms: 50}
}

// Validate reports the first problem with the antenna parameters.
func (a Antenna) Validate() error {
	if a.SelfResonanceHz <= 0 || a.Q <= 0 || a.FeedOhms <= 0 || a.SystemOhms <= 0 {
		return fmt.Errorf("em: invalid antenna parameters %+v", a)
	}
	return nil
}

// Gain returns the antenna's power-gain factor at f: ~1 well below the
// self-resonance, peaking at the resonance, rolling off above.
func (a Antenna) Gain(f float64) float64 {
	if f <= 0 {
		return 0
	}
	// Second-order resonator magnitude response normalized to unity at DC.
	x := f / a.SelfResonanceHz
	den := (1-x*x)*(1-x*x) + (x/a.Q)*(x/a.Q)
	return 1 / den
}

// S11 returns the magnitude (linear, 0..1) of the antenna's input
// reflection coefficient, reproducing the shape of Figure 6: near total
// reflection at low frequency with a deep dip at the self-resonance.
func (a Antenna) S11(f float64) float64 {
	if f <= 0 {
		return 1
	}
	// Series-RLC feed model: X = Z0*Q*(f/fr - fr/f) around resonance.
	x := a.SystemOhms * a.Q * (f/a.SelfResonanceHz - a.SelfResonanceHz/f)
	re := a.FeedOhms - a.SystemOhms
	reP := a.FeedOhms + a.SystemOhms
	num := math.Hypot(re, x)
	den := math.Hypot(reP, x)
	return num / den
}

// Path is the radiating/coupling path from one voltage domain's package to
// the receiver antenna.
type Path struct {
	// DistanceM is the antenna standoff (the paper uses 5-10 cm).
	DistanceM float64 `json:"distance_m"`
	// CouplingK is the lumped radiation/coupling constant at RefDistanceM,
	// in watts per (amp² · (f/RefHz)²).
	CouplingK float64 `json:"coupling_k"`
	// RefHz normalizes the quadratic frequency dependence of radiated
	// power (radiated power of a small loop scales as (f·I)²).
	RefHz float64 `json:"ref_hz"`
	// RefDistanceM is the distance at which CouplingK is specified.
	RefDistanceM float64 `json:"ref_distance_m"`
}

// Validate reports the first problem with the path parameters.
func (p Path) Validate() error {
	if p.DistanceM <= 0 || p.CouplingK <= 0 || p.RefHz <= 0 || p.RefDistanceM <= 0 {
		return fmt.Errorf("em: invalid path parameters %+v", p)
	}
	return nil
}

// Emitter is one radiating voltage domain: a current spectrum with its own
// coupling path. Several emitters (e.g. the Cortex-A72 and Cortex-A53
// domains of a big.LITTLE SoC) can radiate into the same antenna; their
// powers add incoherently per bin (Section 6.1's simultaneous monitoring).
type Emitter struct {
	Freqs []float64
	IAmp  []float64
	Path  Path
}

// CombinedSpectrum sums the received power of all emitters onto the bin
// grid of the first emitter. All emitters must share the same grid.
func CombinedSpectrum(ant Antenna, emitters []Emitter) (freqs, watts []float64, err error) {
	if len(emitters) == 0 {
		return nil, nil, fmt.Errorf("em: no emitters")
	}
	total := make([]float64, len(emitters[0].Freqs))
	freqs, err = CombineInto(total, ant, emitters)
	if err != nil {
		return nil, nil, err
	}
	return freqs, total, nil
}

// pathCoeff holds the current-independent per-bin factors of the received
// power (the per-bin model ReceivedPower, kept in the package tests as the
// oracle) for one (antenna, path, frequency grid) combination: pre[i] is
// CouplingK·(f/RefHz)² and gain[i] the antenna gain, both folded in the
// exact multiplication order ReceivedPower uses.
type pathCoeff struct {
	pre  []float64
	gain []float64
}

// pathKey is the grid-independent part of a coefficient table's identity.
type pathKey struct {
	ant  Antenna
	path Path
}

// pathCoeffs memoizes coefficient tables per (grid, antenna, path). Grids
// are the freqs slices of PDN transfer sets; detrand.GridMemoize keys them
// by backing array without pinning them, so a freed grid's table goes too.
var pathCoeffs sync.Map

func coeffsFor(ant Antenna, p Path, freqs []float64) *pathCoeff {
	return detrand.GridMemoize(&pathCoeffs, freqs, pathKey{ant: ant, path: p}, func() *pathCoeff {
		c := &pathCoeff{pre: make([]float64, len(freqs)), gain: make([]float64, len(freqs))}
		for i, f := range freqs {
			fr := f / p.RefHz
			c.pre[i] = p.CouplingK * fr * fr
			c.gain[i] = ant.Gain(f)
		}
		return c
	})
}

// CombineInto is CombinedSpectrum writing into a caller-provided buffer of
// the grid length, so hot paths can recycle it. dst is fully overwritten.
func CombineInto(dst []float64, ant Antenna, emitters []Emitter) (freqs []float64, err error) {
	if len(emitters) == 0 {
		return nil, fmt.Errorf("em: no emitters")
	}
	base := emitters[0].Freqs
	if len(dst) != len(base) {
		return nil, fmt.Errorf("em: destination has %d bins, want %d", len(dst), len(base))
	}
	clear(dst)
	for ei, e := range emitters {
		if len(e.Freqs) != len(base) {
			return nil, fmt.Errorf("em: emitter %d has %d bins, want %d", ei, len(e.Freqs), len(base))
		}
		for i := range base {
			if e.Freqs[i] != base[i] {
				return nil, fmt.Errorf("em: emitter %d bin %d frequency %v differs from %v", ei, i, e.Freqs[i], base[i])
			}
		}
		// Fold the emitter's received power into the total directly rather
		// than materializing a per-emitter spectrum; the validation and the
		// per-bin arithmetic match ReceivedSpectrum exactly.
		if err := e.Path.Validate(); err != nil {
			return nil, fmt.Errorf("em: emitter %d: %w", ei, err)
		}
		if err := ant.Validate(); err != nil {
			return nil, fmt.Errorf("em: emitter %d: %w", ei, err)
		}
		if len(e.Freqs) != len(e.IAmp) {
			return nil, fmt.Errorf("em: emitter %d: %w", ei,
				fmt.Errorf("em: spectrum length mismatch %d vs %d", len(e.Freqs), len(e.IAmp)))
		}
		if len(base) == 0 {
			continue
		}
		// The distance factor and the per-bin coefficients hoist everything
		// current-independent out of the loop; the remaining multiplications
		// run in ReceivedPower's exact left-to-right order, so the folded
		// values are bit-identical to calling it per bin.
		d := e.Path.RefDistanceM / e.Path.DistanceM
		dist := d * d * d
		c := coeffsFor(ant, e.Path, e.Freqs)
		for i := range base {
			f, iAmp := e.Freqs[i], e.IAmp[i]
			if f <= 0 || iAmp <= 0 {
				continue
			}
			dst[i] += c.pre[i] * iAmp * iAmp * dist * dist * c.gain[i]
		}
	}
	return base, nil
}
