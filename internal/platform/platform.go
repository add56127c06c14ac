// Package platform assembles the experimental systems of the paper's
// Table 1: the ARM Juno R2 board with its Cortex-A72 (dual-core, OC-DSO
// instrumented) and Cortex-A53 (quad-core, no voltage visibility) voltage
// domains, and the AMD Athlon II X4 645 desktop (on-package Kelvin pads).
//
// A Domain couples a calibrated PDN model, a core model, an instruction
// pool and an EM coupling path, and exposes the electrical responses the
// simulated instruments measure. Expensive PDN transfer functions are
// cached per (powered cores, supply, sampling) configuration, since GA runs
// evaluate thousands of individuals against the same domain state.
package platform

import (
	"fmt"
	"math"
	"sync"

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

// Domain is a voltage domain whose one runtime setting is the number of
// powered cores. Clock and supply are experiment parameters: the campaign
// paths take them explicitly (PreparePointAt, LadderAt, MinVDroop), and
// everything else runs at the maximum clock and nominal supply.
type Domain struct {
	Spec Spec

	mu           sync.Mutex
	poweredCores int
	transfers    map[transferKey]*pdn.TransferSet

	// specHashV caches SpecContentHash — the Spec is immutable after
	// NewDomain, so the JSON canonicalization runs at most once.
	specHashOnce sync.Once
	specHashV    uint64
}

// transferKey omits the supply setting: the network is linear, so its
// small-signal transfers are supply-independent and one set serves every
// voltage step of a V_MIN search.
type transferKey struct {
	cores int
	n     int
	dt    float64
}

// NewDomain returns a domain at nominal conditions with all cores powered.
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
	return &Domain{
		Spec:         spec,
		poweredCores: spec.TotalCores,
		transfers:    make(map[transferKey]*pdn.TransferSet),
	}, nil
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
func (d *Domain) PoweredCores() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.poweredCores
}

// SetPoweredCores power-gates all but n cores (the SCP operation the paper
// drives through the DS-5 debugger).
func (d *Domain) SetPoweredCores(n int) error {
	if n < 1 || n > d.Spec.TotalCores {
		return fmt.Errorf("platform: %s: cannot power %d of %d cores", d.Spec.Name, n, d.Spec.TotalCores)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.poweredCores = n
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

// Reset powers every core again.
func (d *Domain) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.poweredCores = d.Spec.TotalCores
}

// Model returns the PDN model for the current powered-core count at the
// nominal supply.
func (d *Domain) Model() (*pdn.Model, error) {
	return pdn.NewModel(d.Spec.PDN, d.PoweredCores())
}

// transferSetAt returns (building and caching as needed) the PDN transfer
// functions for a powered-core count and sampling grid, solved at the
// nominal supply: the network is linear, so its small-signal transfers
// serve every supply. Under concurrent misses both goroutines build the
// same set and one copy wins.
func (d *Domain) transferSetAt(cores, n int, dt float64) (*pdn.TransferSet, error) {
	key := transferKey{cores: cores, n: n, dt: dt}
	d.mu.Lock()
	ts, ok := d.transfers[key]
	d.mu.Unlock()
	if ok {
		return ts, nil
	}

	m, err := pdn.NewModel(d.Spec.PDN, cores)
	if err != nil {
		return nil, err
	}
	built, err := m.Transfers(n, dt)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if ts, ok = d.transfers[key]; !ok {
		d.transfers[key] = built
		ts = built
	}
	d.mu.Unlock()
	return ts, nil
}

// SpectraCacheStats always reports zeros: the domain keeps no in-memory
// spectra memo. It stays only because perfbench/workloads.go calls it.
func (d *Domain) SpectraCacheStats() (hits, misses, evictions uint64) {
	return 0, 0, 0
}
