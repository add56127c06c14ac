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
	// Samples is the default analyzer averaging for Measurer specs and
	// sweeps that leave it zero (default 30, matching core.NewBench).
	Samples int

	pool         *lab.Pool
	sessions     int
	platformName string
	seed         int64
	domains      []string

	mu   sync.Mutex
	caps map[string]Caps
}

// NewRemote dials a lab daemon with a pool of `jobs` sessions (jobs<=0
// selects GOMAXPROCS) and checks its protocol version.
func NewRemote(addr string, jobs int, opts lab.Options) (*Remote, error) {
	sessions := par.Workers(jobs)
	pool, err := lab.NewPool(addr, sessions, opts)
	if err != nil {
		return nil, err
	}
	r := &Remote{
		Samples:  30,
		pool:     pool,
		sessions: sessions,
		caps:     make(map[string]Caps),
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

// part renders a load on a domain with powered cores powered (0 = every
// core) as the program part a request carries.
func (r *Remote) part(domain string, load platform.Load, powered int) (lab.Part, error) {
	caps, err := r.Caps(domain)
	if err != nil {
		return lab.Part{}, err
	}
	if powered, err = caps.Powered(powered); err != nil {
		return lab.Part{}, err
	}
	ipool, err := capsPool(caps)
	if err != nil {
		return lab.Part{}, err
	}
	return lab.Part{Domain: domain, Powered: powered, Cores: load.ActiveCores, Pool: ipool, Seq: load.Seq, Phases: load.PhaseCycles}, nil
}

// Measurer builds a GA fitness function that evaluates individuals on the
// remote target. It is a ga.BatchMeasurer: for the em metric a generation
// goes out as multi-part MEASUREs, one per session in use; droop and ptp
// send one VMEASURE per individual and fail client-side with a
// *CapabilityError when the domain is voltage-blind.
func (r *Remote) Measurer(spec MeasurerSpec) (ga.Measurer, error) {
	caps, err := r.Caps(spec.Domain)
	if err != nil {
		return nil, err
	}
	if spec.Samples <= 0 {
		spec.Samples = r.Samples
	}
	if spec.PoweredCores, err = caps.Powered(spec.PoweredCores); err != nil {
		return nil, err
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
	return &remoteMeasurer{r: r, spec: spec, pool: ipool}, nil
}

// remoteMeasurer is the Remote's GA fitness function.
type remoteMeasurer struct {
	r    *Remote
	spec MeasurerSpec
	pool *isa.Pool
}

// Measure evaluates one individual: a batch of one.
func (m *remoteMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	res, err := m.MeasureBatch([]ga.BatchItem{{Seq: seq}}, 1)
	if err != nil {
		return 0, 0, err
	}
	return res[0].Fitness, res[0].DominantHz, nil
}

// MeasureBatch implements ga.BatchMeasurer. The items are split into
// contiguous chunks, one per session the call may use (min(parallelism,
// pool sessions)) and at most lab.MaxMeasureParts each, and every em chunk
// is one MEASURE; the daemon's batch dedups and memoizes exactly as a
// local bench does, so the results are bit-identical to Measure per item.
// Voltage metrics send one VMEASURE per item on the same sessions. With
// an error it returns the results of the leading items that were
// measured.
func (m *remoteMeasurer) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	out := make([]ga.BatchResult, len(items))
	workers := min(par.Workers(parallelism), m.r.sessions)
	size := 1
	if m.spec.Metric == MetricEM {
		size = min((len(items)+workers-1)/workers, lab.MaxMeasureParts)
	}
	chunks := (len(items) + size - 1) / size
	got := make([]int, chunks) // results each chunk returned
	err := par.ForEach(workers, chunks, func(k int) error {
		lo, hi := k*size, min((k+1)*size, len(items))
		parts := make([]lab.Part, hi-lo)
		for i := range parts {
			parts[i] = lab.Part{Domain: m.spec.Domain, Powered: m.spec.PoweredCores, Cores: m.spec.ActiveCores,
				Pool: m.pool, Seq: items[lo+i].Seq}
		}
		return m.r.pool.Do(func(c *lab.Client) error {
			if m.spec.Metric != MetricEM {
				fitness, domHz, err := c.VMeasure(parts[0], string(m.spec.Metric), m.spec.Samples, m.spec.DSOSeed)
				if err == nil {
					out[lo], got[k] = ga.BatchResult{Fitness: fitness, DominantHz: domHz}, 1
				}
				return err
			}
			ms, err := c.Measure(parts, m.spec.Samples)
			for i, meas := range ms {
				out[lo+i] = ga.BatchResult{Fitness: meas.PeakDBm, DominantHz: meas.PeakHz}
			}
			got[k] = len(ms)
			return err
		})
	})
	if err != nil {
		n := 0
		for k := 0; k < chunks && n == k*size; k++ {
			n += got[k]
		}
		return out[:n], err
	}
	return out, nil
}

// Sweep measures fast-sweep points on the daemon: one SWEEP over the
// listed clocks.
func (r *Remote) Sweep(domain string, activeCores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	if samples <= 0 {
		samples = r.Samples
	}
	caps, err := r.Caps(domain)
	if err != nil {
		return nil, err
	}
	if powered, err = caps.Powered(powered); err != nil {
		return nil, err
	}
	var points []*core.SweepPoint
	err = r.pool.Do(func(c *lab.Client) error {
		var err error
		points, err = c.Sweep(domain, powered, activeCores, samples, clocks)
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
		if parts[i], err = r.part(name, loads[name], 0); err != nil {
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
func (r *Remote) Vmin(domain string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error) {
	p, err := r.part(domain, load, powered)
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
func (r *Remote) VminShmoo(domain string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	p, err := r.part(domain, load, powered)
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
