package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// Local adapts an in-process core.Bench to the Backend interface. It adds
// no behavior of its own: every method delegates to the bench on the
// domain view at the request's powered cores, so code rebased from
// *core.Bench onto Backend produces the same bytes it did before.
type Local struct {
	bench *core.Bench
}

// NewLocal wraps a validated bench.
func NewLocal(b *core.Bench) (*Local, error) {
	if b == nil {
		return nil, fmt.Errorf("backend: nil bench")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Local{bench: b}, nil
}

// Bench exposes the wrapped bench for callers that need local-only
// surfaces (analytic PDN paths).
func (l *Local) Bench() *core.Bench { return l.bench }

func (l *Local) domain(name string) (*platform.Domain, error) {
	return l.bench.Platform.Domain(name)
}

// view returns a domain's view with powered cores powered (0 = every
// core, the view Platform.Domain returns).
func (l *Local) view(name string, powered int) (*platform.Domain, error) {
	d, err := l.domain(name)
	if err != nil || powered == 0 {
		return d, err
	}
	return d.Gated(powered)
}

// PlatformName identifies the wrapped platform.
func (l *Local) PlatformName() string { return l.bench.Platform.Name }

// Domains lists the platform's voltage domains.
func (l *Local) Domains() []string {
	ds := l.bench.Platform.Domains()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Spec.Name
	}
	return names
}

// Caps returns a domain's capability record.
func (l *Local) Caps(name string) (Caps, error) {
	d, err := l.domain(name)
	if err != nil {
		return Caps{}, err
	}
	return specCaps(d.Spec), nil
}

// specCaps is the capability record a domain spec implies; the lab server
// reports the same fields over CAPS.
func specCaps(spec platform.Spec) Caps {
	kind, _ := instrument.ScopeFor(spec.VoltageVisibility)
	return Caps{
		Domain:            spec.Name,
		TotalCores:        spec.TotalCores,
		Arch:              spec.ISA,
		MaxClockHz:        spec.MaxClockHz,
		ClockStepHz:       spec.ClockStepHz,
		VoltageVisibility: spec.VoltageVisibility,
		DSOKind:           kind,
	}
}

// Measurer builds a GA fitness function on the local bench. The em metric
// returns the bench's own batch-capable measurer unchanged.
func (l *Local) Measurer(spec MeasurerSpec) (ga.Measurer, error) {
	d, err := l.view(spec.Domain, spec.PoweredCores)
	if err != nil {
		return nil, err
	}
	b := l.bench.WithSamples(spec.Samples)
	switch spec.Metric {
	case MetricEM:
		return b.EMMeasurer(d, spec.ActiveCores), nil
	case MetricDroop, MetricPtp:
		vis := d.Spec.VoltageVisibility
		_, newScope := instrument.ScopeFor(vis)
		if newScope == nil {
			return nil, &CapabilityError{Domain: spec.Domain, Metric: spec.Metric, Visibility: vis}
		}
		dso := newScope(spec.DSOSeed)
		if spec.Metric == MetricDroop {
			return b.DroopMeasurer(d, spec.ActiveCores, dso), nil
		}
		return b.PtpMeasurer(d, spec.ActiveCores, dso), nil
	default:
		return nil, fmt.Errorf("backend: unknown metric %q", spec.Metric)
	}
}

// Sweep measures fast-sweep points with one core.Bench.SweepBatch: one
// probe build, one primed trace, one band-prefilter pass and arena-backed
// spectra for the whole clock list.
func (l *Local) Sweep(name string, activeCores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	d, err := l.view(name, powered)
	if err != nil {
		return nil, err
	}
	return l.bench.WithSamples(samples).SweepBatch(d, activeCores, clocks)
}

// MonitorAll captures one combined spectrum over several domains' loads.
func (l *Local) MonitorAll(loads map[string]platform.Load) (*instrument.Sweep, error) {
	return l.bench.MonitorAll(loads)
}

// Vmin runs a repeated V_MIN search. All repeats descend one batched
// supply ladder (vmin.Tester.Repeat), so the electrical evaluation of
// revisited voltage steps amortizes across runs.
func (l *Local) Vmin(name string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error) {
	d, err := l.view(name, powered)
	if err != nil {
		return nil, nil, err
	}
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = l.bench.Parallelism
	return tester.Repeat(load, repeats)
}

// VminShmoo traces the frequency/voltage failure boundary. The batched
// shmoo primes the workload trace once, dedups clocks that snap onto the
// same DVFS step, and descends per-column supply ladders — results are
// bit-identical to per-clock searches, which is what the fleet's one-cell
// ShmooGrid shards rely on.
func (l *Local) VminShmoo(name string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	d, err := l.view(name, powered)
	if err != nil {
		return nil, err
	}
	tester := vmin.NewTester(d, seed)
	tester.Parallelism = l.bench.Parallelism
	return tester.Shmoo(load, clocks)
}

// EvalStats returns the bench's evaluation counters, in the text the lab
// daemon's STATS verb sends (core.Bench.EvalStats); name must be one of
// the platform's domains.
func (l *Local) EvalStats(name string) (string, error) {
	if _, err := l.domain(name); err != nil {
		return "", err
	}
	return l.bench.EvalStats(), nil
}

// Close is a no-op: the bench lives in-process.
func (l *Local) Close() error { return nil }
