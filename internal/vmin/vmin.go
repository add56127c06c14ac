// Package vmin implements the paper's V_MIN methodology (Section 5.2): run
// a workload, lower the supply in fixed steps from a safe voltage, and
// report the highest voltage at which any deviation from nominal execution
// is observed — silent data corruption (SDC), an application crash, or a
// system crash.
//
// Failure model: logic fails when the worst instantaneous die voltage under
// the workload falls below a clock-dependent critical voltage
// vcrit(f) = VCritAtMax - SlackPerHz·(fmax - f). Just above the outright
// crash point there is a narrow band (the paper observes ~10 mV) where SDC
// and application crashes appear first. A small per-trial jitter on the
// threshold reproduces the run-to-run spread that makes the paper repeat
// each virus measurement 30 times. The jitter is drawn from a deterministic
// stream keyed by (tester seed, load, operating point, trial index) — see
// internal/detrand — so trials are order-independent and shmoo points can
// be evaluated concurrently with bit-identical results.
//
// Descent: a step's outcome depends on its electrical response only
// through the minimum die voltage compared against the trial's two
// thresholds. The PDN is linear in the supply, so the nominal rung of a
// column predicts every lower rung's minimum within a proven rounding
// bound (platform.Ladder.PredictMinV), and the descent solves a step's
// rung only when the prediction lies within that bound of a threshold.
// The results are bit-identical to solving every step, at about one
// solved rung per column instead of one per step.
package vmin

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/detrand"
	"repro/internal/platform"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// FailureKind classifies the outcome of one execution.
type FailureKind int

// Outcomes, from benign to fatal.
const (
	Pass FailureKind = iota
	SDC
	AppCrash
	SystemCrash
)

// String returns a human-readable outcome name.
func (k FailureKind) String() string {
	switch k {
	case Pass:
		return "pass"
	case SDC:
		return "sdc"
	case AppCrash:
		return "app-crash"
	case SystemCrash:
		return "system-crash"
	default:
		return fmt.Sprintf("failure(%d)", int(k))
	}
}

// ParseKind is the inverse of FailureKind.String, used to round-trip
// outcomes over the lab wire protocol.
func ParseKind(s string) (FailureKind, error) {
	switch s {
	case "pass":
		return Pass, nil
	case "sdc":
		return SDC, nil
	case "app-crash":
		return AppCrash, nil
	case "system-crash":
		return SystemCrash, nil
	default:
		return 0, fmt.Errorf("vmin: unknown outcome %q", s)
	}
}

// Tester runs V_MIN searches against one voltage domain.
type Tester struct {
	Domain *platform.Domain
	// Dt and N set the electrical analysis grid (dt per sample, N samples).
	Dt float64
	N  int
	// ThresholdJitterV is the sigma of the per-trial critical-voltage
	// jitter.
	ThresholdJitterV float64
	// Parallelism bounds the worker count of Shmoo; 0 or 1 runs serially.
	// Results are identical at any setting.
	Parallelism int

	seed int64 // base of the per-trial jitter streams
}

// NewTester returns a tester with the default analysis grid.
func NewTester(d *platform.Domain, seed int64) *Tester {
	return &Tester{
		Domain:           d,
		Dt:               0.25e-9,
		N:                8192,
		ThresholdJitterV: 1.5e-3,
		seed:             seed,
	}
}

// trialRNG derives the jitter stream for one trial from everything that
// identifies it: the load, the operating point, and the trial nonce
// (Repeat's run index, so repeated searches see independent jitter).
func (t *Tester) trialRNG(load platform.Load, clockHz, supply float64, trial int) *rand.Rand {
	h := detrand.NewHash()
	h.Uint64(load.Hash())
	h.Float64(clockHz)
	h.Float64(supply)
	h.Int(t.Domain.PoweredCores())
	return detrand.Stream(t.seed, h.Sum(), uint64(int64(trial)))
}

// vcritAt returns the critical voltage at an explicit clock setting.
func (t *Tester) vcritAt(clockHz float64) float64 {
	spec := t.Domain.Spec
	return spec.Failure.VCritAtMax - spec.Failure.SlackPerHz*(spec.MaxClockHz-clockHz)
}

// Result is a completed V_MIN search.
type Result struct {
	// VminV is the highest supply at which any deviation was observed.
	VminV float64
	// Outcome is the deviation kind observed at VminV.
	Outcome FailureKind
	// MarginV is nominal voltage minus VminV (Table 2's voltage margin).
	MarginV float64
	// DroopNominalV is the workload's worst droop at nominal supply
	// (Figure 10's red curve).
	DroopNominalV float64
}

// Search lowers the supply from the domain's nominal voltage in the
// board's V_MIN step size until a deviation is observed. The search runs at
// the domain's current clock without mutating any domain state, descending
// a batched supply ladder: the simulation, base waveform and PDN transfers
// freeze once per search, the nominal rung is solved once, and each lower
// step is decided from the nominal rung's prediction unless its outcome is
// ambiguous within the prediction's rounding bound (see searchEval).
func (t *Tester) Search(load platform.Load) (*Result, error) {
	ar := getArena()
	defer putArena(ar)
	return t.searchLadder(load, t.Domain.ClockHz(), 0, nil, ar)
}

// searchLadder is Search at an explicit clock with a trial nonce, its
// column state frozen in the caller's arena and optionally served from a
// primed clock-invariant trace (nil falls back to per-column sizing).
func (t *Tester) searchLadder(load platform.Load, clockHz float64, trial int, tr *uarch.Trace, ar *slab.Arena) (*Result, error) {
	ld, err := t.Domain.LadderAt(load, t.Dt, t.N, clockHz, tr, ar)
	if err != nil {
		return nil, err
	}
	return t.searchEval(load, clockHz, trial, ld)
}

// searchEval is the descent itself down one column's ladder: the paper's
// step-by-step descent, each step decided by stepOutcome from the nominal
// rung's prediction where that is proven exact, so the result is
// bit-identical to solving every step.
func (t *Tester) searchEval(load platform.Load, clockHz float64, trial int, ld *platform.Ladder) (*Result, error) {
	spec := t.Domain.Spec
	step := spec.VminStepVolts()
	nominal := spec.PDN.VNominal

	// Droop at nominal conditions first.
	_, nomDroop, err := ld.MinVDroop(nominal)
	if err != nil {
		return nil, err
	}

	maxSteps := int(nominal/step) + 1
	for i := 0; i <= maxSteps; i++ {
		supply := nominal - float64(i)*step
		if supply <= 0 {
			return nil, fmt.Errorf("vmin: %s: no failure found down to 0V (model miscalibrated?)", spec.Name)
		}
		kind, err := t.stepOutcome(load, clockHz, supply, trial, ld)
		if err != nil {
			return nil, err
		}
		if kind != Pass {
			return &Result{
				VminV:         supply,
				Outcome:       kind,
				MarginV:       nominal - supply,
				DroopNominalV: nomDroop,
			}, nil
		}
	}
	return nil, fmt.Errorf("vmin: %s: search exhausted", spec.Name)
}

// stepOutcome applies the failure model to one step of a descent. The
// step's minimum die voltage is predicted from the nominal rung
// (platform.Ladder.PredictMinV) and its rung solved only when a threshold
// — vcrit or vcrit+SDCBand — lies within the prediction's bound delta, or
// the prediction is NaN. The jittered threshold comes from the trial's
// content-keyed stream, pure in (load, operating point, trial), so the
// outcome does not depend on whether the rung was solved.
func (t *Tester) stepOutcome(load platform.Load, clockHz, supply float64, trial int, ld *platform.Ladder) (FailureKind, error) {
	rng := t.trialRNG(load, clockHz, supply, trial)
	vcrit := t.vcritAt(clockHz) + rng.NormFloat64()*t.ThresholdJitterV
	band := vcrit + t.Domain.Spec.Failure.SDCBand
	minV, delta, err := ld.PredictMinV(supply)
	if err != nil {
		return 0, err
	}
	// A solved rung lies within delta/PredictSafety of the prediction, so
	// beyond delta the comparisons below agree with the solved rung's
	// (rounding the thresholds themselves moves them by ulps of a volt).
	// NaN fails every comparison and so is never decisive.
	decided := minV < vcrit-delta ||
		(minV > vcrit+delta && minV < band-delta) ||
		minV > band+delta
	if !decided {
		if minV, _, err = ld.MinVDroop(supply); err != nil {
			return 0, err
		}
	}
	switch {
	case minV < vcrit:
		return SystemCrash, nil
	case minV < band:
		// In the marginal band, lighter failures surface first.
		if rng.Intn(2) == 0 {
			return SDC, nil
		}
		return AppCrash, nil
	default:
		return Pass, nil
	}
}

// Repeat performs n independent V_MIN searches (the paper runs 30 per
// virus) and returns the per-run V_MIN values plus the worst (highest).
// The run index is the trial nonce, so each repetition sees independent
// threshold jitter. All n descents share one ladder: the supply response
// is a pure function of the operating point, so the nominal rung (which
// predicts every other) and any rung a descent had to solve dedup to one
// electrical evaluation, and only the jittered classification differs per
// run.
func (t *Tester) Repeat(load platform.Load, n int) (worst *Result, all []float64, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("vmin: need at least 1 repetition")
	}
	clock := t.Domain.ClockHz()
	ar := getArena()
	defer putArena(ar)
	ld, err := t.Domain.LadderAt(load, t.Dt, t.N, clock, nil, ar)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		r, err := t.searchEval(load, clock, i, ld)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, r.VminV)
		if worst == nil || r.VminV > worst.VminV {
			worst = r
		}
	}
	return worst, all, nil
}

// arenaPool recycles the per-search (and per-shmoo-worker) slab arenas;
// after the first few campaigns every search runs allocation-free on the
// electrical side.
var arenaPool sync.Pool

func getArena() *slab.Arena {
	if ar, _ := arenaPool.Get().(*slab.Arena); ar != nil {
		return ar
	}
	return &slab.Arena{}
}

func putArena(ar *slab.Arena) {
	ar.Reset()
	arenaPool.Put(ar)
}
