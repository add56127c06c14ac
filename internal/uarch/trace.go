package uarch

// Campaign-scoped trace priming.
//
// A sweep, shmoo or V_MIN campaign evaluates one workload at many operating
// points, and the simulator is purely cycle-domain: every point asks for the
// identical simulation, only the steady-window length varies (with the
// clock). PrimeTrace runs the one backing simulation sized for the
// campaign's largest demand and hands back a Trace: an immutable history
// handle whose Synth reconstructs the Result of any covered window
// bit-identically to a fresh Run, by the prefix lemma (see traceHist.synth).
// It is the only simulation reuse there is: a caller without a campaign
// (one GA fitness evaluation) primes a call-local trace that serves its own
// sizing stages and is dropped with the call.

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Trace is a primed, immutable charge history for one (Config, Seq) pair,
// covering at least the steady window it was primed with. The zero of the
// type is not useful; a nil *Trace is a valid "no priming" value (Covers
// reports false) so callers can thread an optional trace unconditionally.
type Trace struct {
	hist *traceHist
}

// PrimeTrace simulates the loop once, covering steadyCycles of steady
// state, and returns the history handle.
func PrimeTrace(cfg Config, seq []isa.Inst, steadyCycles int) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("uarch: empty instruction sequence")
	}
	if steadyCycles < 1 {
		return nil, fmt.Errorf("uarch: minSteadyCycles = %d", steadyCycles)
	}
	h, err := simulate(&cfg, seq, steadyCycles)
	if err != nil {
		return nil, err
	}
	return &Trace{hist: h}, nil
}

// Covers reports whether the primed history can serve a run with the given
// steady window. A nil trace covers nothing.
func (t *Trace) Covers(minSteadyCycles int) bool {
	return t != nil && minSteadyCycles >= 1 && t.hist.covers(minSteadyCycles)
}

// Synth reconstructs the exact Result a fresh Run with the given steady
// window would produce (the window must be covered; see Covers). The error
// case reproduces the cycle-limit failure a fresh run would report.
func (t *Trace) Synth(minSteadyCycles int) (*Result, error) {
	return t.hist.synth(minSteadyCycles)
}

// LoopCyclesAt returns the LoopCycles statistic Synth(minSteadyCycles)
// would report — or the error it would produce — without materializing the
// Result. Batched sizing passes use it to pick the snapped window before
// synthesizing the one Result the point actually keeps.
func (t *Trace) LoopCyclesAt(minSteadyCycles int) (float64, error) {
	h := t.hist
	end := h.warmup + minSteadyCycles
	if limit := minSteadyCycles*64 + 100000; end-1 > limit {
		return 0, steadyStateErr(minSteadyCycles)
	}
	return h.loopCyclesAt(end, sort.SearchInts(h.iterStarts, end)), nil
}
