// Package backend defines the one measurement surface every layer above
// the rig speaks: domain enumeration, GA measurer factories (the EM
// measurement), fast sweeps, V_MIN campaigns and evaluation statistics.
// No method changes the rig: power gating, like clock and supply, is an
// argument of each request. Two implementations exist — Local wraps a
// core.Bench in-process, Remote drives a lab daemon over TCP — and they
// are observationally equivalent: the same seeds and workloads produce
// bit-identical results on either (see DESIGN.md §12 for the argument),
// so backend choice is purely a deployment decision, exactly the paper's
// workstation/target split.
//
// Capabilities replace implicit assumptions: a caller asks Caps() whether
// a domain has direct voltage visibility (and which scope provides it)
// instead of measuring garbage; requesting a droop/ptp measurer on a
// blind domain fails with a typed *CapabilityError.
package backend

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// Metric names a GA fitness observable: the EM peak (the paper's default,
// works on every domain), the DSO droop depth, or the peak-to-peak swing.
type Metric string

// The three measurer metrics.
const (
	MetricEM    Metric = "em"
	MetricDroop Metric = "droop"
	MetricPtp   Metric = "ptp"
)

// ParseMetric validates a metric name (e.g. from a -metric flag).
func ParseMetric(s string) (Metric, error) {
	switch Metric(s) {
	case MetricEM, MetricDroop, MetricPtp:
		return Metric(s), nil
	default:
		return "", fmt.Errorf("backend: unknown metric %q (want em, droop or ptp)", s)
	}
}

// Caps is a domain's capability record: what the rig can do.
type Caps struct {
	Domain      string
	TotalCores  int
	Arch        isa.Arch
	MaxClockHz  float64
	ClockStepHz float64
	// VoltageVisibility is the domain's direct voltage measurement support:
	// "oc-dso", "kelvin-pads" or "none". The droop/ptp metrics need it; EM
	// does not — that asymmetry is the paper's thesis.
	VoltageVisibility string
	// DSOKind names the scope the visibility implies ("oc-dso",
	// "bench-scope") or is empty when there is none.
	DSOKind string
}

// Pool returns the ISA instruction pool matching the domain's
// architecture.
func (c Caps) Pool() *isa.Pool { return isa.PoolFor(c.Arch) }

// ClockSteps lists the domain's clock grid from low to high, identical to
// the local Domain.ClockSteps (both evaluate platform.ClockStepsFor on the
// same two floats).
func (c Caps) ClockSteps() []float64 {
	return platform.ClockStepsFor(c.ClockStepHz, c.MaxClockHz)
}

// SweepClockSteps lists the clock grid a fast resonance sweep walks,
// descending like the paper (1.2 GHz down), identical to the local
// core.SweepClockSteps.
func (c Caps) SweepClockSteps() []float64 {
	steps := c.ClockSteps()
	sort.Sort(sort.Reverse(sort.Float64Slice(steps)))
	return steps
}

// Powered resolves a powered-core argument against the domain: 0 means
// every core, and anything else must lie in [1, TotalCores].
func (c Caps) Powered(n int) (int, error) {
	if n == 0 {
		return c.TotalCores, nil
	}
	if n < 1 || n > c.TotalCores {
		return 0, fmt.Errorf("backend: %s: cannot power %d of %d cores", c.Domain, n, c.TotalCores)
	}
	return n, nil
}

// MeasurerSpec configures a GA measurer factory call.
type MeasurerSpec struct {
	Domain      string
	Metric      Metric
	ActiveCores int
	// PoweredCores is the number of cores powered while the individuals
	// run (0 = every core); the rest are power-gated.
	PoweredCores int
	// Samples is the analyzer averaging depth per evaluation (0 = backend
	// default).
	Samples int
	// DSOSeed fixes the scope noise stream for the droop/ptp metrics, so
	// historical experiment seeds reproduce on any backend. Ignored for em
	// (the analyzer seed is rig-owned).
	DSOSeed int64
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
		"backend: metric %q needs direct voltage visibility, but domain %s has %q — use the em metric (no voltage access required), or target a domain with an OC-DSO or Kelvin pads",
		e.Metric, e.Domain, e.Visibility)
}

// IsCapabilityError reports whether err is (or wraps) a *CapabilityError.
func IsCapabilityError(err error) bool {
	var ce *CapabilityError
	return errors.As(err, &ce)
}

// Backend is one measurement rig: a platform with one or more voltage
// domains and the instruments attached to it. Every operating-point
// parameter the paper's methodology varies (powered and active cores,
// clocks) is an argument of the call that uses it, so no method changes
// the rig and concurrent callers cannot disturb one another. Wherever a
// method takes powered, 0 means every core. Implementations must be
// content-deterministic — the same (seed, workload, operating point)
// always yields the same bytes — and safe for concurrent use by multiple
// goroutines.
type Backend interface {
	// PlatformName identifies the rig ("juno-r2", "amd-desktop", ...).
	PlatformName() string
	// Domains lists the rig's voltage domains.
	Domains() []string
	// Caps returns a domain's capability record.
	Caps(domain string) (Caps, error)

	// Measurer builds a GA fitness function for the spec's metric. A
	// droop/ptp request on a domain without voltage visibility returns a
	// *CapabilityError.
	Measurer(spec MeasurerSpec) (ga.Measurer, error)

	// Sweep measures the Section 5.3 fast-sweep points at the given clock
	// settings, with the probe loop on activeCores of powered cores and
	// the given per-point analyzer averaging (samples <= 0 is the backend
	// default). points[i] answers clocks[i] and is nil when the probe loop
	// is out of band at that clock; no clocks is no points. Each point is
	// a pure function of its snapped clock, so any split of a grid into
	// calls agrees bit for bit; ResonanceSweep walks the whole grid.
	Sweep(domain string, activeCores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error)
	// MonitorAll captures one spectrum with every given domain's load
	// emitting simultaneously, every core powered (Figure 15).
	MonitorAll(loads map[string]platform.Load) (*instrument.Sweep, error)

	// Vmin runs a repeated V_MIN search of the load with powered cores
	// powered and returns the worst result plus every per-run V_MIN;
	// repeats=1 is a single search.
	Vmin(domain string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error)
	// VminShmoo traces the frequency/voltage failure boundary of the load
	// with powered cores powered at the given clocks.
	VminShmoo(domain string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error)

	// EvalStats returns the rig-side evaluation-cache counters for -v
	// output.
	EvalStats(domain string) (string, error)
	// Close releases the rig (network sessions, pools). The local backend
	// is a no-op.
	Close() error
}

// ResonanceSweep runs the Section 5.3 fast resonance sweep on a backend:
// one Sweep over the domain's whole clock grid with powered cores powered
// (0 = every core), assembled exactly as a local
// core.Bench.FastResonanceSweep assembles its batch.
func ResonanceSweep(be Backend, domain string, activeCores, powered, samples int) (*core.SweepResult, error) {
	caps, err := be.Caps(domain)
	if err != nil {
		return nil, err
	}
	points, err := be.Sweep(domain, activeCores, powered, samples, caps.SweepClockSteps())
	if err != nil {
		return nil, err
	}
	return core.AssembleSweep(points)
}
