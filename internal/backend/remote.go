package backend

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// Remote drives a lab daemon over TCP through a client pool, presenting
// it as a Backend. A HELLO at construction checks that the daemon speaks
// this build's protocol version; any other version is a hard error.
//
// Everything the daemon measures is content-deterministic and every value
// crosses the wire as %g (which ParseFloat round-trips exactly), so a
// Remote against a daemon whose bench has the same platform and seed is
// bit-identical to a Local on that bench — dropped connections, retries
// and pool scheduling included.
type Remote struct {
	// Samples is the default analyzer averaging for EMMeasure and for
	// Measurer specs that leave Samples zero (default 30, matching
	// core.NewBench).
	Samples int

	pool         *lab.Pool
	platformName string
	seed         int64
	domains      []string

	mu   sync.Mutex
	caps map[string]Caps
}

// NewRemote dials a lab daemon with a pool of `jobs` sessions (jobs<=0
// selects GOMAXPROCS) and checks its protocol version.
func NewRemote(addr string, jobs int, opts lab.Options) (*Remote, error) {
	pool, err := lab.NewPool(addr, par.Workers(jobs), opts)
	if err != nil {
		return nil, err
	}
	r := &Remote{
		Samples: 30,
		pool:    pool,
		caps:    make(map[string]Caps),
	}
	err = pool.Do(func(c *lab.Client) error {
		_, seed, err := c.Hello()
		if err != nil {
			return fmt.Errorf("backend: lab daemon at %s failed the protocol v%d handshake: %w", addr, lab.ProtocolVersion, err)
		}
		r.seed = seed
		name, doms, err := c.Info()
		if err != nil {
			return err
		}
		r.platformName = name
		for _, d := range doms {
			// INFO reports "name/totalCores".
			r.domains = append(r.domains, strings.SplitN(d, "/", 2)[0])
		}
		return nil
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	return r, nil
}

// TransportStats snapshots the pool's transport counters (latency,
// retries, reconnects) for -v output.
func (r *Remote) TransportStats() lab.Stats { return r.pool.Stats() }

// PlatformName identifies the remote rig.
func (r *Remote) PlatformName() string { return r.platformName }

// Seed reports the daemon bench's analyzer seed (its labtarget -seed):
// the rig's measurements match a local bench with this seed.
func (r *Remote) Seed() int64 { return r.seed }

// Domains lists the remote rig's voltage domains.
func (r *Remote) Domains() []string {
	out := make([]string, len(r.domains))
	copy(out, r.domains)
	return out
}

// NoPoolError reports that a rig's architecture was only interned from
// the wire (a data-defined ISA whose spec this process never loaded), so
// loads cannot be assembled for it. It is deterministic — retrying or
// failing over cannot help; the fix is to load the rig's spec locally.
type NoPoolError struct {
	Arch isa.Arch
}

func (e *NoPoolError) Error() string {
	return fmt.Sprintf("backend: no instruction pool for architecture %s is loaded in this process; pass -platform with the rig's spec file so loads can be assembled", e.Arch)
}

// IsNoPoolError reports whether err is a NoPoolError.
func IsNoPoolError(err error) bool {
	var npe *NoPoolError
	return errors.As(err, &npe)
}

// capsPool resolves the instruction pool for a capability record.
func capsPool(caps Caps) (*isa.Pool, error) {
	if p := caps.Pool(); p != nil {
		return p, nil
	}
	return nil, &NoPoolError{Arch: caps.Arch}
}

// Caps returns a domain's capability record (cached after the first
// query; capabilities are static for the life of a daemon).
func (r *Remote) Caps(domain string) (Caps, error) {
	r.mu.Lock()
	if caps, ok := r.caps[domain]; ok {
		r.mu.Unlock()
		return caps, nil
	}
	r.mu.Unlock()

	var caps Caps
	err := r.pool.Do(func(c *lab.Client) error {
		rc, err := c.Caps(domain)
		if err != nil {
			return err
		}
		caps = Caps{
			Domain:            domain,
			TotalCores:        rc.TotalCores,
			Arch:              rc.Arch,
			MaxClockHz:        rc.MaxClockHz,
			ClockStepHz:       rc.ClockStepHz,
			VoltageVisibility: rc.VoltageVisibility,
			DSOKind:           rc.DSOKind,
		}
		return nil
	})
	if err != nil {
		return Caps{}, err
	}
	r.mu.Lock()
	r.caps[domain] = caps
	r.mu.Unlock()
	return caps, nil
}

// State queries a domain's current operating point.
func (r *Remote) State(domain string) (DomainState, error) {
	var st DomainState
	err := r.pool.Do(func(c *lab.Client) error {
		rs, err := c.State(domain)
		if err != nil {
			return err
		}
		st = DomainState{ClockHz: rs.ClockHz, SupplyV: rs.SupplyV, PoweredCores: rs.PoweredCores}
		return nil
	})
	return st, err
}

// SetPoweredCores power-gates cores on the remote domain.
func (r *Remote) SetPoweredCores(domain string, n int) error {
	return r.pool.Do(func(c *lab.Client) error { return c.SetCores(domain, n) })
}

// Reset restores the remote domain's nominal operating point.
func (r *Remote) Reset(domain string) error {
	return r.pool.Do(func(c *lab.Client) error { return c.Reset(domain) })
}

// part renders a load on a domain as the program part a request carries.
func (r *Remote) part(domain string, load platform.Load) (lab.Part, error) {
	caps, err := r.Caps(domain)
	if err != nil {
		return lab.Part{}, err
	}
	ipool, err := capsPool(caps)
	if err != nil {
		return lab.Part{}, err
	}
	return lab.Part{Domain: domain, Cores: load.ActiveCores, Pool: ipool, Seq: load.Seq, Phases: load.PhaseCycles}, nil
}

// EMMeasure measures a load's EM peak at the backend's default averaging.
func (r *Remote) EMMeasure(domain string, load platform.Load) (*instrument.Measurement, error) {
	return r.EMMeasureN(domain, load, r.Samples)
}

// EMMeasureN measures a load's EM peak with explicit averaging: one
// MEASURE carrying the load.
func (r *Remote) EMMeasureN(domain string, load platform.Load, samples int) (*instrument.Measurement, error) {
	p, err := r.part(domain, load)
	if err != nil {
		return nil, err
	}
	var m *instrument.Measurement
	err = r.pool.Do(func(c *lab.Client) error {
		var err error
		m, err = c.Measure(p, samples)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Measurer builds a GA fitness function that evaluates each individual on
// the remote target in one request carrying its program: MEASURE for the
// em metric, VMEASURE for droop/ptp, which fail client-side with a
// *CapabilityError when the domain is voltage-blind.
func (r *Remote) Measurer(spec MeasurerSpec) (ga.Measurer, error) {
	caps, err := r.Caps(spec.Domain)
	if err != nil {
		return nil, err
	}
	samples := spec.Samples
	if samples <= 0 {
		samples = r.Samples
	}
	switch spec.Metric {
	case MetricEM:
	case MetricDroop, MetricPtp:
		if caps.DSOKind == "" {
			return nil, &CapabilityError{Domain: spec.Domain, Metric: spec.Metric, Visibility: caps.VoltageVisibility}
		}
	default:
		return nil, fmt.Errorf("backend: unknown metric %q", spec.Metric)
	}
	ipool, err := capsPool(caps)
	if err != nil {
		return nil, err
	}
	return ga.MeasurerFunc(func(seq []isa.Inst) (float64, float64, error) {
		p := lab.Part{Domain: spec.Domain, Cores: spec.ActiveCores, Pool: ipool, Seq: seq}
		var fitness, domHz float64
		err := r.pool.Do(func(c *lab.Client) error {
			if spec.Metric != MetricEM {
				var err error
				fitness, domHz, err = c.VMeasure(p, string(spec.Metric), samples, spec.DSOSeed)
				return err
			}
			m, err := c.Measure(p, samples)
			if err != nil {
				return err
			}
			fitness, domHz = m.PeakDBm, m.PeakHz
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		return fitness, domHz, nil
	}), nil
}

// ResonanceSweep runs the fast resonance sweep on the daemon: one SWEEP
// over the domain's whole clock grid, assembled here exactly as a local
// FastResonanceSweep assembles its batch.
func (r *Remote) ResonanceSweep(domain string, activeCores, samples int) (*core.SweepResult, error) {
	caps, err := r.Caps(domain)
	if err != nil {
		return nil, err
	}
	points, err := r.sweep(domain, activeCores, samples, caps.SweepClockSteps())
	if err != nil {
		return nil, err
	}
	return core.AssembleSweep(points)
}

// SweepPoint measures one fast-sweep point at an explicit clock setting on
// the daemon: a SWEEP with one clock.
func (r *Remote) SweepPoint(domain string, activeCores, samples int, clockHz float64) (*core.SweepPoint, error) {
	points, err := r.sweep(domain, activeCores, samples, []float64{clockHz})
	if err != nil {
		return nil, err
	}
	return points[0], nil
}

func (r *Remote) sweep(domain string, activeCores, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	if samples <= 0 {
		samples = r.Samples
	}
	var points []*core.SweepPoint
	err := r.pool.Do(func(c *lab.Client) error {
		var err error
		points, err = c.Sweep(domain, activeCores, samples, clocks)
		return err
	})
	return points, err
}

// MonitorAll captures one combined spectrum over several domains' loads.
// Parts are sent in sorted domain order — the same order the bench's
// MonitorAll iterates — so the target's float summation matches a local
// capture exactly.
func (r *Remote) MonitorAll(loads map[string]platform.Load) (*instrument.Sweep, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("backend: no loads to monitor")
	}
	names := make([]string, 0, len(loads))
	for name := range loads {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]lab.Part, len(names))
	for i, name := range names {
		var err error
		if parts[i], err = r.part(name, loads[name]); err != nil {
			return nil, err
		}
	}
	var sw *instrument.Sweep
	err := r.pool.Do(func(c *lab.Client) error {
		var err error
		sw, err = c.Monitor(parts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// Vmin runs a repeated V_MIN search on the daemon with the workstation's
// tester seed: one VMIN carrying the load.
func (r *Remote) Vmin(domain string, load platform.Load, seed int64, repeats int) (*vmin.Result, []float64, error) {
	p, err := r.part(domain, load)
	if err != nil {
		return nil, nil, err
	}
	var res *vmin.Result
	var runs []float64
	err = r.pool.Do(func(c *lab.Client) error {
		var err error
		res, runs, err = c.Vmin(p, seed, repeats)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, runs, nil
}

// VminShmoo traces the frequency/voltage failure boundary on the daemon:
// one SHMOO carrying the load.
func (r *Remote) VminShmoo(domain string, load platform.Load, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	p, err := r.part(domain, load)
	if err != nil {
		return nil, err
	}
	var points []vmin.ShmooPoint
	err = r.pool.Do(func(c *lab.Client) error {
		var err error
		points, err = c.Shmoo(p, seed, clocks)
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// EvalStats fetches the daemon-side evaluation-cache counters.
func (r *Remote) EvalStats(domain string) (string, error) {
	var stats string
	err := r.pool.Do(func(c *lab.Client) error {
		var err error
		stats, err = c.DomainStats(domain)
		return err
	})
	return stats, err
}

// Close drains and closes the client pool.
func (r *Remote) Close() error { return r.pool.Close() }
