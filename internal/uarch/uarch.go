// Package uarch provides deterministic, cycle-approximate models of the
// three CPU cores the paper characterizes: an out-of-order core in the
// style of the Cortex-A72 and Athlon II, and an in-order dual-issue core in
// the style of the Cortex-A53.
//
// The model executes a stress loop (a GA individual) repeatedly and records
// the per-cycle switching charge. That charge trace is the only interface
// the electrical layers need: at clock frequency f a cycle that moved
// charge Q contributes current Q·f. Determinism matters — the paper
// deliberately excludes cache misses because measurement jitter stalls GA
// convergence (Section 3.3) — so all loads hit L1 with a fixed latency and
// no structure in the model is randomized.
package uarch

import (
	"fmt"

	"repro/internal/isa"
)

// Config describes a core model.
type Config struct {
	Name       string
	OutOfOrder bool
	IssueWidth int
	// WindowSize bounds in-flight instructions (the scheduler window for
	// out-of-order cores, the scoreboard depth for in-order ones).
	WindowSize int
	// Units gives the number of functional units of each kind.
	Units [isa.NumUnits]int
	// ChargeScale multiplies every instruction charge, modelling core size
	// and process node (a 45nm desktop core moves far more charge per
	// operation than a 16nm LITTLE core).
	ChargeScale float64
	// BaseCharge is moved every cycle regardless of activity (clock tree
	// and leakage surrogate), in coulombs.
	BaseCharge float64
	// IdleSlotCharge is moved per unused issue slot per cycle; stalled
	// cycles therefore draw close to BaseCharge only.
	IdleSlotCharge float64
	// CurrentSlewTau is the time constant (seconds) of the core's current
	// ramp: clock distribution and pipeline depth prevent the rail current
	// from stepping instantaneously, which attenuates load-current
	// harmonics well above the PDN resonance.
	CurrentSlewTau float64
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth < 1:
		return fmt.Errorf("uarch: %s: issue width %d", c.Name, c.IssueWidth)
	case c.WindowSize < c.IssueWidth:
		return fmt.Errorf("uarch: %s: window %d smaller than issue width %d", c.Name, c.WindowSize, c.IssueWidth)
	case c.ChargeScale <= 0:
		return fmt.Errorf("uarch: %s: charge scale %v", c.Name, c.ChargeScale)
	case c.BaseCharge < 0 || c.IdleSlotCharge < 0:
		return fmt.Errorf("uarch: %s: negative charge parameters", c.Name)
	case c.CurrentSlewTau < 0:
		return fmt.Errorf("uarch: %s: negative current slew time constant", c.Name)
	}
	for u, n := range c.Units {
		if n < 1 {
			return fmt.Errorf("uarch: %s: no %v units", c.Name, isa.Unit(u))
		}
	}
	return nil
}

// CortexA72 returns a dual-issue-per-pipe out-of-order big-core model in
// the style of the Cortex-A72 (3-wide, moderate window).
func CortexA72() Config {
	var units [isa.NumUnits]int
	units[isa.UnitALU] = 2
	units[isa.UnitMulDiv] = 1
	units[isa.UnitFP] = 2
	units[isa.UnitSIMD] = 2
	units[isa.UnitLS] = 2
	units[isa.UnitBranch] = 1
	return Config{
		Name:           "cortex-a72",
		OutOfOrder:     true,
		IssueWidth:     3,
		WindowSize:     64,
		Units:          units,
		ChargeScale:    0.65,
		BaseCharge:     0.08e-9,
		IdleSlotCharge: 0.01e-9,
		CurrentSlewTau: 1.5e-9,
	}
}

// CortexA53 returns an in-order dual-issue LITTLE-core model in the style
// of the Cortex-A53.
func CortexA53() Config {
	var units [isa.NumUnits]int
	units[isa.UnitALU] = 2
	units[isa.UnitMulDiv] = 1
	units[isa.UnitFP] = 1
	units[isa.UnitSIMD] = 1
	units[isa.UnitLS] = 1
	units[isa.UnitBranch] = 1
	return Config{
		Name:           "cortex-a53",
		OutOfOrder:     false,
		IssueWidth:     2,
		WindowSize:     8,
		Units:          units,
		ChargeScale:    0.45,
		BaseCharge:     0.05e-9,
		IdleSlotCharge: 0.006e-9,
		CurrentSlewTau: 1.5e-9,
	}
}

// AthlonII returns a 45nm desktop out-of-order core model in the style of
// the Athlon II (K10): 3-wide with generous integer resources and a much
// larger per-operation charge.
func AthlonII() Config {
	var units [isa.NumUnits]int
	units[isa.UnitALU] = 3
	units[isa.UnitMulDiv] = 1
	units[isa.UnitFP] = 2
	units[isa.UnitSIMD] = 2
	units[isa.UnitLS] = 2
	units[isa.UnitBranch] = 1
	return Config{
		Name:           "athlon-ii-x4",
		OutOfOrder:     true,
		IssueWidth:     3,
		WindowSize:     72,
		Units:          units,
		ChargeScale:    0.30,
		BaseCharge:     0.35e-9,
		IdleSlotCharge: 0.04e-9,
		CurrentSlewTau: 1.5e-9,
	}
}

// Result is the outcome of executing a stress loop on a core model.
type Result struct {
	Config *Config
	// Charge is the per-cycle switching charge in coulombs, from cycle 0.
	Charge []float64
	// Warmup is the index into Charge where steady state begins (the first
	// cycle of the first post-warmup iteration).
	Warmup int
	// LoopCycles is the average steady-state cycle count per loop
	// iteration (including the loop-closing branch overhead).
	LoopCycles float64
	// IPC is the steady-state instructions per cycle.
	IPC float64
	// Iterations is the number of loop iterations executed in total.
	Iterations int
}

// SteadyCharge returns the steady-state portion of the charge trace.
func (r *Result) SteadyCharge() []float64 { return r.Charge[r.Warmup:] }

const warmupIters = 8

// Run executes the loop body seq on the core model until at least
// minSteadyCycles of steady-state execution have elapsed after the warmup
// iterations, finishing the iteration in flight.
func Run(cfg Config, seq []isa.Inst, minSteadyCycles int) (*Result, error) {
	tr, err := PrimeTrace(cfg, seq, minSteadyCycles)
	if err != nil {
		return nil, err
	}
	return tr.Synth(minSteadyCycles)
}

// SteadyStateError is the error a Run with the given steady window reports
// when the loop does not reach steady state within its cycle limit. The
// limit grows 64 times faster than the window, so a loop that fails at a
// window fails at every shorter one: a caller whose larger priming failed
// reports the error its own window would have produced.
func SteadyStateError(minSteadyCycles int) error { return steadyStateErr(minSteadyCycles) }
