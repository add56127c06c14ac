package uarch

// Campaign-scoped trace priming.
//
// A sweep, shmoo or V_MIN campaign evaluates one workload at many operating
// points, and the simulator is purely cycle-domain: every point asks for the
// identical simulation, only the steady-window length varies (with the
// clock). The global trace cache already exploits this when it is enabled,
// but batched campaigns want the same amortization unconditionally — cold
// benchmarks and cache-off determinism runs included — without routing every
// point through the shared cache's locks. PrimeTrace runs (or looks up) the
// one backing simulation sized for the campaign's largest demand and hands
// back a Trace: an immutable history handle whose Synth reconstructs the
// Result of any covered window bit-identically to a fresh Run, by the same
// prefix lemma the cache relies on (see traceHist.synth).

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
// state, and returns the history handle. When the global trace cache is
// enabled the simulation goes through it — sharing a covering entry or
// installing the freshly simulated one, so scalar traffic benefits too;
// when disabled (or on a key collision) the history is private to the
// handle, which is what lets a batched campaign keep its one-simulation
// cost even in cache-off runs.
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
	if traceCacheOn.Load() {
		c := globalTraceCache
		key := traceKey(&cfg, seq)
		if e, ok := c.lookup(key, &cfg, seq); ok {
			if h := e.hist.Load(); h != nil && h.covers(steadyCycles) {
				c.hits.Add(1)
				return &Trace{hist: h}, nil
			}
			h, err := c.fill(e, steadyCycles)
			if err != nil {
				// Failure to reach steady state is monotone in the window
				// length; report the error a run at this window produces.
				return nil, steadyStateErr(steadyCycles)
			}
			return &Trace{hist: h}, nil
		}
		// Hash collision with different content: simulate uncached, as the
		// cache itself does.
		c.misses.Add(1)
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
