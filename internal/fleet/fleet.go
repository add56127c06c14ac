// Package fleet shards measurement campaigns — GA generations, fast-sweep
// grids, shmoo lattices, V_MIN workload lists — across a set of
// backend.Backends: in-process benches and remote lab daemons, mixed
// freely. The coordinator places shards capability-aware (a rig that
// cannot satisfy a shard never sees it), steals work dynamically so a slow
// rig never gates a campaign, replaces the shards of a dying rig through
// the surviving ones, and journals completed shards to a content-hashed
// checkpoint so a killed coordinator resumes by replay. Because every rig
// is observationally equivalent (same platform, same seeds — the backend
// layer's contract) and results merge by item index, a fleet run is
// bit-identical to a single-backend run at any shard layout.
//
// Fleet itself implements backend.Backend, so everything above the backend
// seam — the GA driver, the sweep and V_MIN campaign code, the CLIs — runs
// unchanged whether it is handed one bench or twelve rigs.
package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/detrand"
	"repro/internal/instrument"
	"repro/internal/lab"
	"repro/internal/par"
	"repro/internal/platform"
)

// Fleet is a Backend: everything above the seam runs unchanged.
var _ backend.Backend = (*Fleet)(nil)

// Rig names one member backend. The name appears in -v statistics and
// error messages ("local", "juno-a:9000", ...).
type Rig struct {
	Name    string
	Backend backend.Backend
}

// Options configures a Fleet.
type Options struct {
	// Slots is the number of concurrent shards per rig (<= 0 resolves to
	// GOMAXPROCS, like every other parallelism knob in the repo).
	Slots int
	// Salt folds coordinator-side run identity that the Backend surface
	// cannot observe — the bench seed behind a Local rig, the daemon seed
	// behind a Remote one — into every campaign key, so checkpoints from
	// runs with different seeds never alias.
	Salt uint64
	// Checkpoint, when non-nil, journals completed shards. The fleet takes
	// ownership and closes it with Close.
	Checkpoint *Checkpoint
}

// rig is the coordinator's view of one member: the backend, its death flag
// (a rig once declared dead stays dead for the coordinator's lifetime; a
// recovered target needs a coordinator restart), and its work counters.
type rig struct {
	name string
	be   backend.Backend

	dead      atomic.Bool
	completed atomic.Uint64
	stolen    atomic.Uint64
	failed    atomic.Uint64
}

// Fleet is a set of observationally equivalent rigs behind one
// backend.Backend face.
type Fleet struct {
	rigs  []*rig
	slots int
	salt  uint64
	ckpt  *Checkpoint

	platformName string
	domains      []string

	campaigns  atomic.Uint64
	itemsTotal atomic.Uint64
	measured   atomic.Uint64
	replayed   atomic.Uint64
	steals     atomic.Uint64
	requeues   atomic.Uint64
	failovers  atomic.Uint64
}

// New validates the member set and builds a fleet. Every rig must present
// the same platform (name and domain list): the determinism story rests on
// rigs being interchangeable, so a mixed fleet is a configuration error,
// not a placement problem.
func New(rigs []Rig, opts Options) (*Fleet, error) {
	if len(rigs) == 0 {
		return nil, fmt.Errorf("fleet: need at least one rig")
	}
	f := &Fleet{
		slots: par.Workers(opts.Slots),
		salt:  opts.Salt,
		ckpt:  opts.Checkpoint,
	}
	for i, r := range rigs {
		if r.Backend == nil {
			return nil, fmt.Errorf("fleet: rig %d (%s) has no backend", i, r.Name)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rig%d", i)
		}
		f.rigs = append(f.rigs, &rig{name: name, be: r.Backend})
	}
	f.platformName = f.rigs[0].be.PlatformName()
	f.domains = f.rigs[0].be.Domains()
	for _, r := range f.rigs[1:] {
		if p := r.be.PlatformName(); p != f.platformName {
			return nil, fmt.Errorf("fleet: rig %s runs platform %q, rig %s runs %q — a fleet must be homogeneous",
				f.rigs[0].name, f.platformName, r.name, p)
		}
		if ds := r.be.Domains(); !reflect.DeepEqual(ds, f.domains) {
			return nil, fmt.Errorf("fleet: rig %s exposes domains %v, rig %s exposes %v",
				f.rigs[0].name, f.domains, r.name, ds)
		}
	}
	return f, nil
}

// Size reports the number of member rigs (dead or alive).
func (f *Fleet) Size() int { return len(f.rigs) }

// LiveRigs reports how many rigs are still accepting work.
func (f *Fleet) LiveRigs() int {
	n := 0
	for _, r := range f.rigs {
		if !r.dead.Load() {
			n++
		}
	}
	return n
}

// firstLive returns the first rig still accepting work. Single-shot
// operations (Caps, MonitorAll) route here: any live rig gives
// the same bytes, so "first live" is both deterministic and failover-safe.
func (f *Fleet) firstLive() (*rig, error) {
	for _, r := range f.rigs {
		if !r.dead.Load() {
			return r, nil
		}
	}
	return nil, fmt.Errorf("fleet: no live rigs")
}

// single runs fn against live rigs in order until one succeeds, condemning
// rigs that fail with transport-class errors along the way. Deterministic
// errors (capability, target-rejected) propagate immediately.
func single[T any](f *Fleet, fn func(r *rig) (T, error)) (T, error) {
	var zero T
	for {
		r, err := f.firstLive()
		if err != nil {
			return zero, err
		}
		v, err := fn(r)
		if err == nil {
			return v, nil
		}
		if isDeterministicError(err) {
			return zero, err
		}
		r.failed.Add(1)
		if !r.dead.Swap(true) {
			f.failovers.Add(1)
		}
	}
}

// keyHash builds a campaign key: the campaign kind, the platform, the
// coordinator salt, then whatever the caller folds in (domain, powered
// cores, seeds, sample depth). Powered cores are always folded resolved
// (powered), never as the 0 that means every core, so a key is the same
// however the caller spelled the count — and the same as a journal
// written when the count was rig state.
func (f *Fleet) keyHash(kind string, fold func(h *detrand.Hash)) uint64 {
	h := detrand.NewHash()
	h.String("fleet:" + kind)
	h.String(f.platformName)
	h.Uint64(f.salt)
	if fold != nil {
		fold(h)
	}
	return h.Sum()
}

// PlatformName identifies the (shared) platform.
func (f *Fleet) PlatformName() string { return f.platformName }

// Domains lists the (shared) voltage domains.
func (f *Fleet) Domains() []string {
	return append([]string(nil), f.domains...)
}

// Caps returns the fleet's capability record for a domain: the first live
// rig's record (every rig serves the same platform).
func (f *Fleet) Caps(domain string) (backend.Caps, error) {
	r, err := f.firstLive()
	if err != nil {
		return backend.Caps{}, err
	}
	return r.be.Caps(domain)
}

// powered resolves a powered-core argument (0 = every core) against the
// domain's capability record: the count a campaign sends every rig and
// folds into its key.
func (f *Fleet) powered(domain string, n int) (int, error) {
	caps, err := single(f, func(r *rig) (backend.Caps, error) { return r.be.Caps(domain) })
	if err != nil {
		return 0, err
	}
	return caps.Powered(n)
}

// MonitorAll captures one combined spectrum on the first live rig.
func (f *Fleet) MonitorAll(loads map[string]platform.Load) (*instrument.Sweep, error) {
	return single(f, func(r *rig) (*instrument.Sweep, error) {
		return r.be.MonitorAll(loads)
	})
}

// EvalStats aggregates the fleet scheduler's counters, the checkpoint
// journal's counters, and every live rig's own statistics (prefixed by rig
// name).
func (f *Fleet) EvalStats(domain string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d rigs (%d live), %d campaigns, %d items: %d measured, %d replayed, %d stolen, %d requeued, %d failovers",
		len(f.rigs), f.LiveRigs(), f.campaigns.Load(), f.itemsTotal.Load(),
		f.measured.Load(), f.replayed.Load(), f.steals.Load(), f.requeues.Load(), f.failovers.Load())
	if f.ckpt != nil {
		hits, misses, dropped := f.ckpt.Stats()
		fmt.Fprintf(&b, "\nfleet checkpoint: %d shards journaled, %d hits, %d misses, %d dropped lines",
			f.ckpt.Len(), hits, misses, dropped)
	}
	for _, r := range f.rigs {
		state := "live"
		if r.dead.Load() {
			state = "dead"
		}
		fmt.Fprintf(&b, "\nfleet rig %s (%s): %d completed, %d stolen, %d failed",
			r.name, state, r.completed.Load(), r.stolen.Load(), r.failed.Load())
		if rem, ok := r.be.(*backend.Remote); ok {
			fmt.Fprintf(&b, "\n  %s: %s", r.name, rem.TransportStats().String())
		}
		if r.dead.Load() {
			continue
		}
		stats, err := r.be.EvalStats(domain)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(stats, "\n") {
			fmt.Fprintf(&b, "\n  %s: %s", r.name, line)
		}
	}
	return b.String(), nil
}

// Close releases every rig (dead ones included: their pools still hold
// sockets) and the checkpoint journal. The first error wins.
func (f *Fleet) Close() error {
	var firstErr error
	for _, r := range f.rigs {
		if err := r.be.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.ckpt != nil {
		if err := f.ckpt.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// isDeterministicError reports whether the error is a property of the
// request rather than of the rig that served it — every rig would return
// it, so failover is pointless and misleading.
func isDeterministicError(err error) bool {
	return backend.IsCapabilityError(err) || backend.IsNoPoolError(err) || lab.IsTargetError(err)
}
