// Package core implements the paper's contribution: EM-driven PDN
// characterization. A Bench couples a platform to a loop antenna and a
// spectrum analyzer and provides:
//
//   - EM-driven dI/dt virus generation: a ga.Measurer whose fitness is the
//     peak received EM amplitude in the first-order-resonance band
//     (Sections 3 and 5.1).
//   - Direct-voltage-driven measurers (max droop, peak-to-peak) for the
//     validation viruses on domains that expose voltage (OC-DSO, Kelvin
//     pads).
//   - The fast resonance sweep of Section 5.3: run a fixed two-phase probe
//     loop, sweep the CPU clock to modulate the loop frequency, and read
//     the resonance off the EM spike maximum.
//   - Simultaneous multi-domain monitoring (Section 6.1): all domains
//     radiate into the same antenna, so concurrent viruses show both
//     spectral signatures in one sweep.
package core

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/platform"
)

// Band is the frequency band searched for the first-order resonance
// (50-200 MHz per Section 3.1).
type Band struct {
	Lo, Hi float64
}

// DefaultBand returns the paper's 50-200 MHz search band.
func DefaultBand() Band { return Band{Lo: 50e6, Hi: 200e6} }

// Bench is a measurement setup: a platform under test, the antenna above
// it, and the spectrum analyzer.
type Bench struct {
	Platform *platform.Platform
	Analyzer *instrument.SpectrumAnalyzer
	Band     Band
	// Samples is the number of analyzer sweeps averaged per measurement
	// (the paper uses 30).
	Samples int
	// Dt and N define the electrical analysis grid; the FFT bin width
	// 1/(N·Dt) bounds the frequency resolution.
	Dt float64
	N  int
	// Parallelism bounds the worker count of the bench's sweeps
	// (FastResonanceSweep); 0 or 1 runs serially. Results are identical at
	// any setting.
	Parallelism int

	// batch holds the generation-batched evaluation state (measurement memo,
	// worker arenas, counters). A pointer so shallow bench copies — the
	// backends' per-request re-sampled views — share one state; see batch.go.
	batch *batchState
}

// NewBench assembles a bench with the paper's defaults: an E4402B-class
// analyzer spanning 9 kHz-1.5 GHz at 1 MHz RBW, 30-sample averaging, and a
// ~0.5 MHz analysis grid.
func NewBench(p *platform.Platform, seed int64) (*Bench, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	sa, err := instrument.NewSpectrumAnalyzer("agilent-e4402b", 9e3, 1.5e9, 1e6, seed)
	if err != nil {
		return nil, err
	}
	return &Bench{
		Platform: p,
		Analyzer: sa,
		Band:     DefaultBand(),
		Samples:  30,
		Dt:       0.25e-9,
		N:        8192,
		batch:    newBatchState(),
	}, nil
}

// Validate reports the first problem with the bench configuration.
func (b *Bench) Validate() error {
	switch {
	case b.Platform == nil:
		return fmt.Errorf("core: bench has no platform")
	case b.Analyzer == nil:
		return fmt.Errorf("core: bench has no analyzer")
	case b.Band.Lo <= 0 || b.Band.Hi <= b.Band.Lo:
		return fmt.Errorf("core: invalid band [%v, %v]", b.Band.Lo, b.Band.Hi)
	case b.Samples < 1:
		return fmt.Errorf("core: %d samples", b.Samples)
	case b.Dt <= 0 || b.N < 16:
		return fmt.Errorf("core: invalid analysis grid dt=%v n=%d", b.Dt, b.N)
	case b.Parallelism < 0:
		return fmt.Errorf("core: negative parallelism %d", b.Parallelism)
	}
	return nil
}

// EMMeasure runs a workload on one domain and measures the received EM
// peak in the bench band: the paper's GA fitness observable.
func (b *Bench) EMMeasure(d *platform.Domain, l platform.Load) (*instrument.Measurement, error) {
	return b.EMMeasureN(d, l, b.Samples)
}

// EMMeasureN is EMMeasure with an explicit averaging count, for callers
// that vary the sample count per request (the lab daemon's MEASURE
// command) without mutating — or copying — the shared bench. It is a batch
// of one, served by the same memo and disk tier as MeasureBatch.
func (b *Bench) EMMeasureN(d *platform.Domain, l platform.Load, samples int) (*instrument.Measurement, error) {
	ms, err := b.emMeasureBatch(d, []platform.Load{l}, samples, 1)
	if err != nil {
		return nil, err
	}
	return &ms[0], nil
}

// EvalStats renders the evaluation counters behind measurements on domain
// d: the domain's cache block plus, once any measurement has run, the
// bench's batch line. Local backends and the lab daemon's STATS verb both
// print exactly this text.
func (b *Bench) EvalStats(d *platform.Domain) string {
	stats := d.EvalStats()
	if bs := b.BatchStats(); bs.Batches > 0 {
		stats += "\n" + bs.String()
	}
	return stats
}

// emMeasurer adapts EMMeasure into a GA fitness function: fitness is the
// averaged peak power in dBm (tournament selection only needs ranks, so
// the dB compression is harmless), and the dominant frequency is the
// per-sweep modal peak bin.
type emMeasurer struct {
	b           *Bench
	d           *platform.Domain
	activeCores int
}

// Measure implements ga.Measurer.
func (m emMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	meas, err := m.b.EMMeasureN(m.d, platform.Load{Seq: seq, ActiveCores: m.activeCores}, m.b.Samples)
	if err != nil {
		return 0, 0, err
	}
	return meas.PeakDBm, meas.PeakHz, nil
}

// EMMeasurer returns the GA fitness measurer for one domain.
func (b *Bench) EMMeasurer(d *platform.Domain, activeCores int) ga.Measurer {
	return emMeasurer{b: b, d: d, activeCores: activeCores}
}

// DroopMeasurer is the validation fitness of Section 5.1: maximum voltage
// droop observed through a scope on a direct-visibility domain (the Juno
// OC-DSO or the AMD Kelvin pads).
func (b *Bench) DroopMeasurer(d *platform.Domain, activeCores int, dso *instrument.DSO) ga.Measurer {
	return b.voltageMeasurer(d, activeCores, dso, func(tr *instrument.VoltageTrace, nominal float64) float64 {
		return tr.MaxDroop(nominal)
	})
}

// PtpMeasurer optimizes peak-to-peak rail swing instead of droop.
func (b *Bench) PtpMeasurer(d *platform.Domain, activeCores int, dso *instrument.DSO) ga.Measurer {
	return b.voltageMeasurer(d, activeCores, dso, func(tr *instrument.VoltageTrace, _ float64) float64 {
		return tr.PeakToPeak()
	})
}

func (b *Bench) voltageMeasurer(d *platform.Domain, activeCores int, dso *instrument.DSO,
	metric func(*instrument.VoltageTrace, float64) float64) ga.Measurer {
	return vMeasurer{b: b, d: d, activeCores: activeCores, dso: dso, metric: metric}
}

// vMeasurer is the direct-voltage fitness backend.
type vMeasurer struct {
	b           *Bench
	d           *platform.Domain
	activeCores int
	dso         *instrument.DSO
	metric      func(*instrument.VoltageTrace, float64) float64
}

// Measure implements ga.Measurer.
func (m vMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	if m.d.Spec.VoltageVisibility == "none" {
		return 0, 0, fmt.Errorf("core: domain %s has no voltage visibility", m.d.Spec.Name)
	}
	l := platform.Load{Seq: seq, ActiveCores: m.activeCores}
	resp, _, err := m.d.SteadyResponse(l, m.b.Dt, m.b.N)
	if err != nil {
		return 0, 0, err
	}
	trace, err := m.dso.Capture(resp)
	if err != nil {
		return 0, 0, err
	}
	freqs, amps := trace.Spectrum()
	var domHz, domAmp float64
	for i, f := range freqs {
		if f < m.b.Band.Lo || f > m.b.Band.Hi {
			continue
		}
		if amps[i] > domAmp {
			domHz, domAmp = f, amps[i]
		}
	}
	return m.metric(trace, m.d.SupplyVolts()), domHz, nil
}

// GenerateVirus runs the GA against the EM fitness on one domain and
// returns the evolved dI/dt virus.
func (b *Bench) GenerateVirus(d *platform.Domain, cfg ga.Config, activeCores int,
	progress func(ga.GenerationStats)) (*ga.Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return ga.Run(cfg, b.EMMeasurer(d, activeCores), progress)
}
