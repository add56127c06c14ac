package instrument

import (
	"fmt"
	"math"

	"repro/internal/detrand"
	"repro/internal/dsp"
	"repro/internal/pdn"
)

// DSO models a digital storage oscilloscope sampling a voltage rail: the
// Juno's on-chip power-supply monitor (OC-DSO, 1.6 GS/s) or a bench scope
// on differential probes at the AMD Kelvin pads.
type DSO struct {
	Model        string
	SampleRateHz float64
	BandwidthHz  float64 // single-pole analog bandwidth limit
	Bits         int     // ADC resolution
	FullScaleV   float64 // ADC full-scale range
	NoiseSigmaV  float64 // input-referred noise

	seed int64 // base of the per-capture noise streams
}

// NewOCDSO returns the Juno on-chip power-delivery monitor configuration
// (up to 1.6 GHz sampling of the Cortex-A72 rail).
func NewOCDSO(seed int64) *DSO {
	return &DSO{
		Model:        "juno-oc-dso",
		SampleRateHz: 1.6e9,
		BandwidthHz:  800e6,
		Bits:         10,
		FullScaleV:   1.6,
		NoiseSigmaV:  0.8e-3,
		seed:         seed,
	}
}

// NewBenchScope returns a bench oscilloscope with a differential probe on
// package Kelvin pads (more noise, lower usable bandwidth).
func NewBenchScope(seed int64) *DSO {
	return &DSO{
		Model:        "bench-scope-diff-probe",
		SampleRateHz: 2.0e9,
		BandwidthHz:  500e6,
		Bits:         8,
		FullScaleV:   2.0,
		NoiseSigmaV:  2.5e-3,
		seed:         seed,
	}
}

// ScopeFor maps a domain's voltage visibility to the scope that reads its
// rail: the kind name capability records carry ("oc-dso" for the Juno's
// on-chip monitor, "bench-scope" for a differential probe on Kelvin pads)
// and the scope's constructor. A domain without rail access ("none", or
// any visibility not listed here) gets an empty kind and a nil constructor.
func ScopeFor(visibility string) (kind string, newScope func(seed int64) *DSO) {
	switch visibility {
	case "oc-dso":
		return "oc-dso", NewOCDSO
	case "kelvin-pads":
		return "bench-scope", NewBenchScope
	}
	return "", nil
}

// Validate reports the first problem with the scope configuration.
func (d *DSO) Validate() error {
	if d.SampleRateHz <= 0 || d.BandwidthHz <= 0 || d.Bits < 1 || d.Bits > 24 ||
		d.FullScaleV <= 0 || d.NoiseSigmaV < 0 {
		return fmt.Errorf("instrument: invalid DSO config %+v", d)
	}
	return nil
}

// VoltageTrace is a captured rail-voltage record.
type VoltageTrace struct {
	Dt float64
	V  []float64
}

// Capture samples the die-voltage of a PDN response: band-limit with a
// single-pole filter, resample onto the scope clock, add noise, quantize.
func (d *DSO) Capture(resp *pdn.Response) (*VoltageTrace, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if resp == nil || len(resp.VDie) < 2 {
		return nil, fmt.Errorf("instrument: empty response")
	}
	// Single-pole low-pass at BandwidthHz on the source grid.
	alpha := 1 - math.Exp(-2*math.Pi*d.BandwidthHz*resp.Dt)
	filtered := make([]float64, len(resp.VDie))
	acc := resp.VDie[0]
	for i, v := range resp.VDie {
		acc += alpha * (v - acc)
		filtered[i] = acc
	}
	dtOut := 1 / d.SampleRateHz
	n := int(float64(len(filtered)) * resp.Dt / dtOut)
	if n < 2 {
		return nil, fmt.Errorf("instrument: response too short for %v GS/s", d.SampleRateHz/1e9)
	}
	out := dsp.Resample(filtered, resp.Dt, dtOut, n)
	h := detrand.NewHash()
	h.Float64(resp.Dt)
	h.Floats(resp.VDie)
	rng := detrand.Stream(d.seed, h.Sum())
	lsb := d.FullScaleV / float64(int(1)<<uint(d.Bits))
	for i := range out {
		v := out[i] + rng.NormFloat64()*d.NoiseSigmaV
		out[i] = math.Round(v/lsb) * lsb
	}
	return &VoltageTrace{Dt: dtOut, V: out}, nil
}

// MaxDroop returns the worst droop below vnom seen in the trace.
func (vt *VoltageTrace) MaxDroop(vnom float64) float64 {
	var worst float64
	for _, v := range vt.V {
		if droop := vnom - v; droop > worst {
			worst = droop
		}
	}
	return worst
}

// PeakToPeak returns the trace's peak-to-peak swing.
func (vt *VoltageTrace) PeakToPeak() float64 { return dsp.PeakToPeak(vt.V) }

// Spectrum returns the single-sided amplitude spectrum of the trace with
// the DC bin removed (the paper's Figure 9 compares this FFT view against
// the spectrum analyzer).
func (vt *VoltageTrace) Spectrum() (freqs, amps []float64) {
	freqs, amps = dsp.AmplitudeSpectrum(vt.V, 1/vt.Dt)
	if len(amps) > 0 {
		amps[0] = 0
	}
	return freqs, amps
}
