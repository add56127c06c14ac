// Package platform assembles the experimental systems of the paper's
// Table 1: the ARM Juno R2 board with its Cortex-A72 (dual-core, OC-DSO
// instrumented) and Cortex-A53 (quad-core, no voltage visibility) voltage
// domains, and the AMD Athlon II X4 645 desktop (on-package Kelvin pads).
//
// A Domain couples a calibrated PDN model, a core model, an instruction
// pool and an EM coupling path, and exposes the electrical responses the
// simulated instruments measure. Power gating is a view, not a setting:
// NewDomain builds one immutable Domain per powered-core count, and
// Domain.Gated selects one. Expensive PDN transfer functions are cached per
// (powered cores, sampling grid), shared by every view of the domain, since
// GA runs evaluate thousands of individuals against the same domain; the
// network is linear, so one transfer set serves every supply.
package platform

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/em"
	"repro/internal/isa"
	"repro/internal/pdn"
	"repro/internal/uarch"
)

// FailureParams calibrates the V_MIN failure model of a domain (used by
// internal/vmin): the critical voltage below which timing fails at the
// domain's maximum clock, and how much slack returns per Hz of downclock.
type FailureParams struct {
	// VCritAtMax is the die voltage at which logic first fails when
	// running at MaxClockHz.
	VCritAtMax float64 `json:"v_crit_at_max"`
	// SlackPerHz lowers the critical voltage as the clock drops:
	// vcrit(f) = VCritAtMax - SlackPerHz*(MaxClockHz-f).
	SlackPerHz float64 `json:"slack_per_hz"`
	// SDCBand is the voltage band just above outright crash in which
	// silent data corruption or application crashes appear first
	// (the paper observes ~10 mV).
	SDCBand float64 `json:"sdc_band"`
}

// Spec is the static description of one voltage domain.
type Spec struct {
	Name       string
	Board      string
	ISA        isa.Arch
	PDN        pdn.Params
	Core       uarch.Config
	TotalCores int
	MaxClockHz float64
	// ClockStepHz is the granularity of the clock control (the Juno
	// multiplier steps by 20 MHz, AMD Overdrive by 100 MHz).
	ClockStepHz float64
	// VoltageVisibility describes the direct measurement support
	// ("oc-dso", "kelvin-pads" or "none" — Table 1's rightmost column).
	VoltageVisibility string
	// EMPath couples this domain's package to the receiver antenna.
	EMPath em.Path
	// Failure calibrates the V_MIN model.
	Failure FailureParams
	// TechNode is the process node in nanometres (reporting only).
	TechNode int
	// OS is the host operating system (reporting only).
	OS string
}

// Domain is a voltage domain at one powered-core count. It holds no
// runtime setting: clock and supply are experiment parameters (the campaign
// paths take them explicitly: PreparePointAt, LadderAt, MinVDroop, and
// everything else runs at the maximum clock and nominal supply), and power
// gating selects another view of the same domain (Gated). The views of a
// domain share its transfer cache and spec hash and are pointer-stable, so
// a *Domain identifies (domain, powered cores) everywhere it keys a memo.
// Spec must not be changed once NewDomain has returned.
type Domain struct {
	Spec Spec

	powered int
	shared  *domainShared
}

// domainShared is what every powered-core view of one domain shares.
type domainShared struct {
	mu        sync.Mutex
	transfers map[transferKey]*transferEntry
	builds    atomic.Int64 // transfer sets solved, for the tests

	// specHashV caches SpecContentHash — the Spec is immutable after
	// NewDomain, so the JSON canonicalization runs at most once.
	specHashOnce sync.Once
	specHashV    uint64

	// views[n-1] is the view with n cores powered.
	views []*Domain
}

// transferKey omits the supply setting: the network is linear, so its
// small-signal transfers are supply-independent and one set serves every
// voltage step of a V_MIN search.
type transferKey struct {
	cores int
	n     int
	dt    float64
}

// transferEntry is one key's transfer set, built once: the first miss
// solves it and concurrent misses wait on once. A build error is kept,
// since the same key would fail the same way again.
type transferEntry struct {
	once sync.Once
	ts   *pdn.TransferSet
	err  error
}

// NewDomain builds a domain's views, one per powered-core count, and
// returns the one with every core powered. Building a view costs one small
// struct: transfer sets are solved on first use and the spec hash is
// computed once for all views.
func NewDomain(spec Spec) (*Domain, error) {
	if err := spec.PDN.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Core.Validate(); err != nil {
		return nil, err
	}
	if err := spec.EMPath.Validate(); err != nil {
		return nil, err
	}
	if spec.TotalCores < 1 {
		return nil, fmt.Errorf("platform: domain %s has %d cores", spec.Name, spec.TotalCores)
	}
	if spec.MaxClockHz <= 0 || spec.ClockStepHz <= 0 {
		return nil, fmt.Errorf("platform: domain %s has invalid clocking", spec.Name)
	}
	if spec.Pool() == nil {
		return nil, fmt.Errorf("platform: domain %s has no instruction pool", spec.Name)
	}
	sh := &domainShared{
		transfers: make(map[transferKey]*transferEntry),
		views:     make([]*Domain, spec.TotalCores),
	}
	views := make([]Domain, spec.TotalCores)
	for i := range views {
		views[i] = Domain{Spec: spec, powered: i + 1, shared: sh}
		sh.views[i] = &views[i]
	}
	return sh.views[spec.TotalCores-1], nil
}

// Pool returns the instruction pool for the domain's ISA.
func (s Spec) Pool() *isa.Pool { return isa.PoolFor(s.ISA) }

// VminStepVolts returns the supply-step granularity used in V_MIN searches
// on this domain (10 mV on the Juno rails, 12.5 mV on the AMD board).
func (s Spec) VminStepVolts() float64 {
	if s.ISA == isa.X86 {
		return 0.0125
	}
	return 0.010
}

// PoweredCores returns the number of powered (not power-gated) cores.
func (d *Domain) PoweredCores() int { return d.powered }

// Gated returns the view of the domain with n cores powered and the rest
// power-gated (the SCP operation the paper drives through the DS-5
// debugger). The same n always returns the same pointer.
func (d *Domain) Gated(n int) (*Domain, error) {
	if n < 1 || n > d.Spec.TotalCores {
		return nil, fmt.Errorf("platform: %s: cannot power %d of %d cores", d.Spec.Name, n, d.Spec.TotalCores)
	}
	return d.shared.views[n-1], nil
}

// SetPoweredCores rewrites this view's powered-core count in place. It is
// a shim kept only for the perfbench module, which gates a domain of a
// freshly built platform before anything else has seen it; the view then
// no longer matches its slot in Gated. Everything else selects a view with
// Gated.
func (d *Domain) SetPoweredCores(n int) error {
	if n < 1 || n > d.Spec.TotalCores {
		return fmt.Errorf("platform: %s: cannot power %d of %d cores", d.Spec.Name, n, d.Spec.TotalCores)
	}
	d.powered = n
	return nil
}

// ClockHz returns the clock every evaluation without an explicit clock
// runs at: the domain's maximum.
func (d *Domain) ClockHz() float64 { return d.Spec.MaxClockHz }

// SnapClock validates a clock request and returns the setting the domain
// would actually run at (quantized to ClockStepHz). The campaign paths
// (PreparePointAt, LadderAt) take snapped clocks.
func (d *Domain) SnapClock(hz float64) (float64, error) {
	if !(hz > 0 && hz <= d.Spec.MaxClockHz) { // negated so NaN is rejected
		return 0, fmt.Errorf("platform: %s: clock %v outside (0, %v]", d.Spec.Name, hz, d.Spec.MaxClockHz)
	}
	steps := math.Round(hz / d.Spec.ClockStepHz)
	if steps < 1 {
		steps = 1
	}
	return steps * d.Spec.ClockStepHz, nil
}

// ClockSteps lists the available clock settings from low to high.
func (d *Domain) ClockSteps() []float64 {
	return ClockStepsFor(d.Spec.ClockStepHz, d.Spec.MaxClockHz)
}

// ClockStepsFor enumerates the clock grid for a (step, max) pair. It is the
// single definition of the grid so a remote capability record (which carries
// only the two floats) reproduces a local Domain.ClockSteps bit-exactly.
func ClockStepsFor(stepHz, maxHz float64) []float64 {
	var out []float64
	for f := stepHz; f <= maxHz+1e-6; f += stepHz {
		out = append(out, f)
	}
	return out
}

// SupplyVolts returns the supply every evaluation without an explicit
// supply runs at: the domain's nominal voltage.
func (d *Domain) SupplyVolts() float64 { return d.Spec.PDN.VNominal }

// Model returns the PDN model for the view's powered-core count at the
// nominal supply.
func (d *Domain) Model() (*pdn.Model, error) {
	return pdn.NewModel(d.Spec.PDN, d.PoweredCores())
}

// transferSetAt returns (building and caching as needed) the PDN transfer
// functions for a powered-core count and sampling grid, solved at the
// nominal supply: the network is linear, so its small-signal transfers
// serve every supply. Each key is solved once: concurrent misses (the
// first batch of a -j N campaign) wait for the first one's build, which
// already spreads its bins over every CPU.
func (d *Domain) transferSetAt(cores, n int, dt float64) (*pdn.TransferSet, error) {
	key := transferKey{cores: cores, n: n, dt: dt}
	sh := d.shared
	sh.mu.Lock()
	e, ok := sh.transfers[key]
	if !ok {
		e = new(transferEntry)
		sh.transfers[key] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		sh.builds.Add(1)
		m, err := pdn.NewModel(d.Spec.PDN, cores)
		if err != nil {
			e.err = err
			return
		}
		e.ts, e.err = m.Transfers(n, dt)
	})
	return e.ts, e.err
}

// SpectraCacheStats always reports zeros: the domain keeps no in-memory
// spectra memo. It stays only because perfbench/workloads.go calls it.
func (d *Domain) SpectraCacheStats() (hits, misses, evictions uint64) {
	return 0, 0, 0
}
