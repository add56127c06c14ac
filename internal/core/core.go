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
	"repro/internal/slab"
	"repro/internal/uarch"
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
	// per-request re-sampled views of WithSamples — share one state; see
	// batch.go.
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
		batch:    &batchState{},
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

// WithSamples returns the bench re-sampled to a different analyzer
// averaging depth: a shallow copy sharing platform, analyzer and batch
// state, or b itself when n <= 0 or n already is b.Samples.
func (b *Bench) WithSamples(n int) *Bench {
	if n <= 0 || n == b.Samples {
		return b
	}
	b2 := *b
	b2.Samples = n
	return &b2
}

// EvalStats renders the evaluation counters behind the bench's
// measurements: the process-wide lines (ProcessStats) and, once any
// measurement has run, the bench's batch line. Local backends and the lab
// daemon's STATS verb both print exactly this text.
func (b *Bench) EvalStats() string {
	stats := ProcessStats()
	if bs := b.BatchStats(); bs.Batches > 0 {
		stats += "\n" + bs.String()
	}
	return stats
}

// ProcessStats renders the evaluation counters every bench in the process
// shares: the steady-state extrapolation line and, when a persistent store
// is installed, the store's line. A command driving several benches
// prints these once, beside each bench's own batch line.
func ProcessStats() string {
	stats := fmt.Sprintf("steady-state extrapolation: %d simulated cycles skipped", uarch.ExtrapolatedCycles())
	if s := PersistentStore(); s != nil {
		stats += "\n" + s.Stats().String()
	}
	return stats
}

// Metric names a GA fitness observable: the EM peak (the paper's default,
// works on every domain), the DSO droop depth, or the peak-to-peak swing.
type Metric string

// The three measurer metrics.
const (
	MetricEM    Metric = "em"
	MetricDroop Metric = "droop"
	MetricPtp   Metric = "ptp"
)

// ParseMetric validates a metric name (e.g. from a -metric flag or a
// MEASURE request).
func ParseMetric(s string) (Metric, error) {
	switch Metric(s) {
	case MetricEM, MetricDroop, MetricPtp:
		return Metric(s), nil
	default:
		return "", fmt.Errorf("core: unknown metric %q (want em, droop or ptp)", s)
	}
}

// CapabilityError reports a measurement request a domain cannot satisfy,
// with enough context to act on.
type CapabilityError struct {
	Domain     string
	Metric     Metric
	Visibility string
}

func (e *CapabilityError) Error() string {
	return fmt.Sprintf(
		"core: metric %q needs direct voltage visibility, but domain %s has %q — use the em metric (no voltage access required), or target a domain with an OC-DSO or Kelvin pads",
		e.Metric, e.Domain, e.Visibility)
}

// measurer is the GA fitness function of one metric on one domain view,
// its individuals running on activeCores. With no dso it is the EM
// metric: fitness is the averaged peak power in dBm (tournament selection
// only needs ranks, so the dB compression is harmless) and the dominant
// frequency is the per-sweep modal peak bin. With a dso it is a
// direct-voltage metric (Section 5.1's validation viruses): the
// steady-state die voltage captured by the domain's scope, reduced by
// value, with the trace spectrum's strongest in-band bin as the dominant
// frequency.
type measurer struct {
	b           *Bench
	d           *platform.Domain
	activeCores int
	dso         *instrument.DSO
	value       func(tr *instrument.VoltageTrace, nominal float64) float64
}

// EMMeasurer returns the GA fitness measurer for one domain.
func (b *Bench) EMMeasurer(d *platform.Domain, activeCores int) ga.Measurer {
	return measurer{b: b, d: d, activeCores: activeCores}
}

// Measurer builds the GA fitness function of metric on domain d, its
// individuals running on activeCores: em is EMMeasurer's; droop and ptp
// read the rail through the scope the domain's voltage visibility implies
// (the Juno OC-DSO or a bench scope on the AMD Kelvin pads), seeded with
// dsoSeed so a campaign's scope noise reproduces anywhere. A domain with
// no scope gets a *CapabilityError.
func (b *Bench) Measurer(d *platform.Domain, metric Metric, activeCores int, dsoSeed int64) (ga.BatchMeasurer, error) {
	m := measurer{b: b, d: d, activeCores: activeCores}
	switch metric {
	case MetricEM:
		return m, nil
	case MetricDroop:
		m.value = func(tr *instrument.VoltageTrace, nominal float64) float64 { return tr.MaxDroop(nominal) }
	case MetricPtp:
		m.value = func(tr *instrument.VoltageTrace, _ float64) float64 { return tr.PeakToPeak() }
	default:
		return nil, fmt.Errorf("core: unknown metric %q", metric)
	}
	vis := d.Spec.VoltageVisibility
	_, newScope := instrument.ScopeFor(vis)
	if newScope == nil {
		return nil, &CapabilityError{Domain: d.Spec.Name, Metric: metric, Visibility: vis}
	}
	m.dso = newScope(dsoSeed)
	return m, nil
}

// MeasureLoads measures every load on domain d under metric through
// Measurer's batch path, at the bench's sample count, on up to
// parallelism workers. Unlike a GA batch, each load keeps its own active
// cores and phases. A non-nil emit receives every result in index order
// as soon as it and all results before it are known.
func (b *Bench) MeasureLoads(d *platform.Domain, metric Metric, dsoSeed int64, loads []platform.Load, parallelism int,
	emit func(i int, r ga.BatchResult) error) ([]ga.BatchResult, error) {
	m, err := b.Measurer(d, metric, 0, dsoSeed)
	if err != nil {
		return nil, err
	}
	return m.(measurer).measureLoads(loads, parallelism, emit)
}

// Measure implements ga.Measurer: a batch of one.
func (m measurer) Measure(seq []isa.Inst) (float64, float64, error) {
	res, err := m.MeasureBatch([]ga.BatchItem{{Seq: seq}}, 1)
	if err != nil {
		return 0, 0, err
	}
	return res[0].Fitness, res[0].DominantHz, nil
}

// MeasureBatch implements ga.BatchMeasurer: one call evaluates the whole
// generation through the bench's batch driver (intra-batch dedup, slab
// arenas and, for em, the cross-generation memo), bit-identical to
// per-individual Measure calls at any parallelism.
func (m measurer) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	loads := make([]platform.Load, len(items))
	for i, it := range items {
		loads[i] = platform.Load{Seq: it.Seq, ActiveCores: m.activeCores}
	}
	return m.measureLoads(loads, parallelism, nil)
}

func (m measurer) measureLoads(loads []platform.Load, parallelism int, emit func(int, ga.BatchResult) error) ([]ga.BatchResult, error) {
	if m.dso == nil {
		var emitEM func(int, instrument.Measurement) error
		if emit != nil {
			emitEM = func(i int, r instrument.Measurement) error { return emit(i, emResult(r)) }
		}
		meas, err := m.b.EMMeasureBatch(m.d, loads, m.b.Samples, parallelism, emitEM)
		if err != nil {
			return nil, err
		}
		results := make([]ga.BatchResult, len(meas))
		for i, r := range meas {
			results[i] = emResult(r)
		}
		return results, nil
	}
	// Scope noise is keyed by the seed and the captured rail, so a voltage
	// reading is a pure function of the load and the batch dedups it
	// exactly; it keeps no memo.
	if err := m.b.Validate(); err != nil {
		return nil, err
	}
	return runBatch(m.b.batchSt(), loads, parallelism, nil, func(ar *slab.Arena, i int) (ga.BatchResult, error) {
		resp, _, err := m.d.SteadyVDie(loads[i], m.b.Dt, m.b.N, ar)
		if err != nil {
			return ga.BatchResult{}, err
		}
		trace, err := m.dso.Capture(resp)
		if err != nil {
			return ga.BatchResult{}, err
		}
		freqs, amps := trace.Spectrum()
		var domHz, domAmp float64
		for k, f := range freqs {
			if f >= m.b.Band.Lo && f <= m.b.Band.Hi && amps[k] > domAmp {
				domHz, domAmp = f, amps[k]
			}
		}
		return ga.BatchResult{Fitness: m.value(trace, m.d.SupplyVolts()), DominantHz: domHz}, nil
	}, emit)
}

// emResult is an EM measurement as GA fitness.
func emResult(m instrument.Measurement) ga.BatchResult {
	return ga.BatchResult{Fitness: m.PeakDBm, DominantHz: m.PeakHz}
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
