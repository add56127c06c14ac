// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a named, self-contained function over a
// shared Context (which caches the expensive GA-generated viruses), returns
// a structured Result, and renders a human-readable report. The cmd/repro
// binary, the repository's benchmark harness and the regression tests all
// run the same code.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks the GA runs (smaller populations, fewer generations)
	// and repetition counts so the full suite finishes in seconds. The
	// paper-scale settings are used when false.
	Quick bool
	// Seed makes every stochastic component reproducible.
	Seed int64
	// Parallelism bounds the worker count of the GA runs and sweeps; 0 or
	// 1 runs serially. Results are identical at any setting.
	Parallelism int
	// Backends substitutes remote measurement backends for the local
	// benches, keyed by platform name ("juno-r2", "amd-desktop"). The
	// measurement-driven experiments (sweeps, GAs, V_MIN campaigns,
	// monitoring) run through them; the analytic paths (PDN math, SCL,
	// direct scope captures) always use the local models. A daemon whose
	// bench is seeded Seed+1 (juno) / Seed+2 (amd) reproduces the local
	// results bit for bit.
	Backends map[string]backend.Backend
	// JunoPlatform / AMDPlatform substitute another platform (a registry
	// name or a .json spec path, resolved through platform.Resolve) for
	// the corresponding experiment slot. Best effort: experiments that
	// address the built-in domains by name fail with a clear "no domain"
	// error when the substitute lacks them.
	JunoPlatform string
	AMDPlatform  string
}

// Result is a completed experiment.
type Result struct {
	ID    string
	Title string
	// Text is the rendered report (tables/series).
	Text string
	// Values holds the headline numbers for regression checks and
	// EXPERIMENTS.md, keyed by metric name.
	Values map[string]float64
}

// Experiment is a runnable paper artifact.
type Experiment struct {
	ID    string // e.g. "fig7", "tab2"
	Title string
	Run   func(ctx *Context) (*Result, error)
}

// Context carries the platforms, benches and virus cache shared by the
// experiment suite.
type Context struct {
	Opts Options

	Juno *platform.Platform
	AMD  *platform.Platform

	JunoBench *core.Bench
	AMDBench  *core.Bench

	// JunoBE/AMDBE are the measurement backends the experiments drive —
	// Local wrappers of the benches above unless Options.Backends
	// substitutes remote ones.
	JunoBE backend.Backend
	AMDBE  backend.Backend

	mu      sync.Mutex
	viruses map[string]*ga.Result
}

// NewContext builds the two platforms and their benches.
func NewContext(opts Options) (*Context, error) {
	juno, err := resolveSlot(opts.JunoPlatform, "juno-r2")
	if err != nil {
		return nil, err
	}
	amd, err := resolveSlot(opts.AMDPlatform, "amd-desktop")
	if err != nil {
		return nil, err
	}
	jb, err := core.NewBench(juno, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	ab, err := core.NewBench(amd, opts.Seed+2)
	if err != nil {
		return nil, err
	}
	if opts.Quick {
		jb.Samples = 8
		ab.Samples = 8
	}
	jb.Parallelism = opts.Parallelism
	ab.Parallelism = opts.Parallelism
	jbe, err := backendFor(opts, juno.Name, jb)
	if err != nil {
		return nil, err
	}
	abe, err := backendFor(opts, amd.Name, ab)
	if err != nil {
		return nil, err
	}
	return &Context{
		Opts:      opts,
		Juno:      juno,
		AMD:       amd,
		JunoBench: jb,
		AMDBench:  ab,
		JunoBE:    jbe,
		AMDBE:     abe,
		viruses:   make(map[string]*ga.Result),
	}, nil
}

// resolveSlot builds the platform for an experiment slot: the registry
// default, or the Options override (registry name or spec file).
func resolveSlot(override, def string) (*platform.Platform, error) {
	if override == "" {
		return platform.Build(def)
	}
	return platform.Resolve(override)
}

// backendFor picks the substitute backend for a platform, or wraps the
// local bench. A substituted remote inherits the bench's analyzer
// averaging so Quick mode scales both sides identically.
func backendFor(opts Options, name string, b *core.Bench) (backend.Backend, error) {
	if be, ok := opts.Backends[name]; ok {
		if got := be.PlatformName(); got != name {
			return nil, fmt.Errorf("experiments: backend for %q serves platform %q", name, got)
		}
		if r, ok := be.(*backend.Remote); ok {
			r.Samples = b.Samples
		}
		return be, nil
	}
	return backend.NewLocal(b)
}

// gaConfig returns the GA settings at the current scale.
func (c *Context) gaConfig(pool *isa.Pool) ga.Config {
	cfg := ga.DefaultConfig(pool)
	cfg.Seed = c.Opts.Seed + 10
	cfg.Parallelism = c.Opts.Parallelism
	if c.Opts.Quick {
		cfg.PopulationSize = 20
		cfg.Generations = 30
	}
	return cfg
}

// vminRepeats is the per-virus V_MIN repetition count (paper: 30).
func (c *Context) vminRepeats() int {
	if c.Opts.Quick {
		return 3
	}
	return 30
}

// All returns the experiment inventory in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1b", Title: "PDN impedance profile (Fig. 1b)", Run: runFig1b},
		{ID: "fig1c", Title: "PDN step response (Fig. 1c)", Run: runFig1c},
		{ID: "fig2", Title: "Resonant excitation waveforms (Fig. 2)", Run: runFig2},
		{ID: "fig4", Title: "OC-DSO waveforms: idle vs SPEC vs virus (Fig. 4)", Run: runFig4},
		{ID: "fig6", Title: "Antenna |S11| response (Fig. 6)", Run: runFig6},
		{ID: "fig7", Title: "EM-driven GA on Cortex-A72 (Fig. 7)", Run: runFig7},
		{ID: "fig8", Title: "SCL resonance sweep on Cortex-A72 (Fig. 8)", Run: runFig8},
		{ID: "fig9", Title: "Spectrum analyzer vs OC-DSO FFT (Fig. 9)", Run: runFig9},
		{ID: "fig10", Title: "V_MIN and droop on Cortex-A72 (Fig. 10)", Run: runFig10},
		{ID: "fig11", Title: "Fast EM resonance sweep on Cortex-A72 (Fig. 11)", Run: runFig11},
		{ID: "fig12", Title: "EM-driven GA on Cortex-A53 (Fig. 12)", Run: runFig12},
		{ID: "fig13", Title: "Power-gating resonance shifts on Cortex-A53 (Fig. 13)", Run: runFig13},
		{ID: "fig14", Title: "V_MIN on Cortex-A53 (Fig. 14)", Run: runFig14},
		{ID: "fig15", Title: "Simultaneous multi-domain monitoring (Fig. 15)", Run: runFig15},
		{ID: "fig16", Title: "Fast EM resonance sweep on Athlon II (Fig. 16)", Run: runFig16},
		{ID: "fig17", Title: "EM-driven GA on Athlon II (Fig. 17)", Run: runFig17},
		{ID: "fig18", Title: "V_MIN and noise on Athlon II (Fig. 18)", Run: runFig18},
		{ID: "tab1", Title: "Experimental platforms (Table 1)", Run: runTab1},
		{ID: "tab2", Title: "dI/dt virus comparison (Table 2)", Run: runTab2},
	}
}

// ByID finds one experiment, searching the paper set and the extensions.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Extensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
