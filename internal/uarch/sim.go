package uarch

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// dinst is one statically decoded instruction of the loop body: everything
// fetch and issue need, resolved once per simulation instead of once per
// dynamic instruction. The decoded source list replicates isa.Inst.Sources
// exactly (the NSrc register operands, then the destination when it is also
// read), and the charge is pre-scaled by the core's ChargeScale.
type dinst struct {
	pos     int // index in the loop body
	unit    isa.Unit
	latency int
	block   int
	charge  float64 // Def.Charge * cfg.ChargeScale
	rf      int
	srcs    [3]int
	nSrc    int
	dest    int
	noDest  bool
}

// entry is an in-flight dynamic instruction in the scheduler window. prods
// holds only producers that have not issued yet; once a producer's
// completion cycle is known it is folded into readyAt (the latest known
// producer completion) and dropped, so repeated wakeup checks never rescan
// resolved dependencies.
type entry struct {
	d       *dinst
	prods   [3]int // dynamic indices of still-unissued producers
	nProds  int
	readyAt int // max completion cycle over resolved producers
	issued  bool
	dyn     int
}

type sim struct {
	cfg *Config
	seq []isa.Inst
	dec []dinst

	// The window is a ring buffer of power-of-two capacity: win[(winHead+i)
	// &winMask] for i in [0, winLen) is the i-th oldest in-flight
	// instruction. Fetch writes at the tail, retire advances the head, and
	// neither ever moves an entry or reallocates.
	win     []entry
	winMask int
	winHead int
	winLen  int

	// unissuedNext chains the window slots holding unissued instructions in
	// age order (-1 terminated), so issue walks exactly the dispatch
	// candidates instead of rescanning slots that already issued.
	unissuedNext []int32
	unissuedHead int32
	unissuedTail int32

	// completeAt[dyn] is the cycle the instruction's result is ready;
	// -1 while not yet issued.
	completeAt []int
	// lastWriter[regfile][reg] is the dynamic index of the latest writer.
	lastWriter [2][]int
	// unitBusyUntil[unit][instance] is the first free cycle of that unit.
	unitBusyUntil [isa.NumUnits][]int

	// chargeDiff is a difference array: addCharge records a charge span as
	// two endpoint updates and run folds it into the per-cycle trace with a
	// single prefix-sum pass, instead of touching Block cycles per issue.
	// Invariant: every element beyond len and within cap is zero, so the
	// reslice in addCharge never exposes stale data.
	chargeDiff []float64
	// cumIssued[c] is the total instruction count issued through cycle c
	// (recorded after that cycle's issue stage); it lets a primed history
	// reproduce the IPC of any shorter run exactly.
	cumIssued []int64
	cycle     int
	fetched   int
	issued    int

	iterStarts []int // fetch cycle of each iteration's first instruction

	// Steady-state extrapolation (see extrapolate): anchor signatures are
	// taken at the first cycle boundary after each post-warmup iteration
	// start and kept in a small ring, so periods spanning several loop
	// iterations are still recognized. One signature match proves the
	// pipeline repeats with the anchors' cycle distance as its period; the
	// fast-forward fires one period later, once the template's inflow
	// mirrors the previous period's.
	sigs      [sigRing][]uint64
	sigCycles [sigRing]int
	sigCount  int
	// pendingP is the proven period: 0 while still searching, -1 when
	// extrapolation is off for this run (a limit-bound window, or the
	// full-simulation reference TestSteadyExtrapolationBitIdentical builds).
	pendingP  int
	pendingAt int
	seenIters int
	maxBlock  int
}

// sigRing is how many recent anchors extrapolation compares against: steady
// patterns with periods up to sigRing-1 loop iterations are detected.
const sigRing = 8

// simPool recycles sim shells between runs. Everything a published
// traceHist retains (the folded charge trace, cumIssued, iterStarts) is
// either freshly allocated per run or ownership-transferred out of the sim
// before release, so pooling can never alias a primed Trace.
var simPool sync.Pool

// newSim prepares a simulation. steadyHint sizes the per-cycle buffers for
// an expected run of roughly warmup+steady cycles; it only affects
// allocation, never results.
func newSim(cfg *Config, seq []isa.Inst, steadyHint int) *sim {
	s, _ := simPool.Get().(*sim)
	if s == nil {
		s = new(sim)
	}
	s.cfg = cfg
	s.seq = seq
	s.decode(seq)

	wcap := 1
	for wcap < cfg.WindowSize {
		wcap <<= 1
	}
	if len(s.win) < wcap {
		s.win = make([]entry, wcap)
		s.unissuedNext = make([]int32, wcap)
	}
	s.winMask = len(s.win) - 1
	s.winHead, s.winLen = 0, 0
	s.unissuedHead, s.unissuedTail = -1, -1

	if s.completeAt == nil {
		s.completeAt = make([]int, 0, 4096)
	} else {
		s.completeAt = s.completeAt[:0]
	}
	if s.chargeDiff == nil {
		s.chargeDiff = make([]float64, 0, steadyHint)
	} else {
		s.chargeDiff = s.chargeDiff[:0]
	}
	// cumIssued and iterStarts are transferred into the traceHist at the end
	// of every run, so they always start fresh.
	s.cumIssued = make([]int64, 0, steadyHint)
	s.iterStarts = make([]int, 0, 256)

	for f := range s.lastWriter {
		if s.lastWriter[f] == nil {
			s.lastWriter[f] = make([]int, 64)
		}
		lw := s.lastWriter[f]
		for i := range lw {
			lw[i] = -1
		}
	}
	for u := range s.unitBusyUntil {
		n := cfg.Units[u]
		if cap(s.unitBusyUntil[u]) < n {
			s.unitBusyUntil[u] = make([]int, n)
		} else {
			s.unitBusyUntil[u] = s.unitBusyUntil[u][:n]
			b := s.unitBusyUntil[u]
			for i := range b {
				b[i] = 0
			}
		}
	}

	s.cycle, s.fetched, s.issued = 0, 0, 0
	s.sigCount, s.pendingP, s.pendingAt = 0, 0, 0
	s.seenIters = 0
	return s
}

// release returns the sim shell to the pool. chargeDiff is zeroed over its
// final length to restore the zero-beyond-len invariant for the next run.
func (s *sim) release() {
	clear(s.chargeDiff)
	s.chargeDiff = s.chargeDiff[:0]
	s.cfg, s.seq = nil, nil
	s.cumIssued, s.iterStarts = nil, nil
	simPool.Put(s)
}

// decode builds the per-position instruction table.
func (s *sim) decode(seq []isa.Inst) {
	if cap(s.dec) < len(seq) {
		s.dec = make([]dinst, len(seq))
	} else {
		s.dec = s.dec[:len(seq)]
	}
	s.maxBlock = 1
	for i := range seq {
		in := &seq[i]
		d := in.Def
		if d.Block > s.maxBlock {
			s.maxBlock = d.Block
		}
		di := &s.dec[i]
		di.pos = i
		di.unit = d.Unit
		di.latency = d.Latency
		di.block = d.Block
		di.charge = d.Charge * s.cfg.ChargeScale
		di.rf = int(d.RegFile)
		di.dest = in.Dest
		di.noDest = d.NoDest
		n := 0
		for k := 0; k < d.NSrc; k++ {
			di.srcs[n] = in.Srcs[k]
			n++
		}
		if d.DestIsSrc && !d.NoDest {
			di.srcs[n] = in.Dest
			n++
		}
		di.nSrc = n
	}
}

// simulate runs the simulator once from cycle 0 and recycles the sim shell.
func simulate(cfg *Config, seq []isa.Inst, minSteadyCycles int) (*traceHist, error) {
	s := newSim(cfg, seq, simHint(minSteadyCycles))
	h, err := s.run(minSteadyCycles)
	s.release()
	return h, err
}

// simHint estimates the total cycle count of a run with the given steady
// window, leaving room for the warmup iterations.
func simHint(minSteadyCycles int) int {
	return minSteadyCycles + minSteadyCycles/4 + 2048
}

// addCharge accumulates q coulombs per cycle over [from, from+cycles).
func (s *sim) addCharge(from, cycles int, q float64) {
	if need := from + cycles + 1; need > len(s.chargeDiff) {
		if need <= cap(s.chargeDiff) {
			s.chargeDiff = s.chargeDiff[:need]
		} else {
			grown := make([]float64, need, need+need/2)
			copy(grown, s.chargeDiff)
			s.chargeDiff = grown
		}
	}
	s.chargeDiff[from] += q
	s.chargeDiff[from+cycles] -= q
}

// fetch renames and inserts up to IssueWidth instructions into the window.
func (s *sim) fetch() {
	for n := 0; n < s.cfg.IssueWidth && s.winLen < s.cfg.WindowSize; n++ {
		pos := s.fetched % len(s.seq)
		if pos == 0 {
			s.iterStarts = append(s.iterStarts, s.cycle)
		}
		d := &s.dec[pos]
		sl := (s.winHead + s.winLen) & s.winMask
		e := &s.win[sl]
		e.d = d
		e.nProds = 0
		e.readyAt = 0
		e.issued = false
		e.dyn = s.fetched
		lw := s.lastWriter[d.rf]
		for i := 0; i < d.nSrc; i++ {
			if w := lw[d.srcs[i]]; w >= 0 {
				if c := s.completeAt[w]; c >= 0 {
					if c > e.readyAt {
						e.readyAt = c
					}
				} else {
					e.prods[e.nProds] = w
					e.nProds++
				}
			}
		}
		if !d.noDest {
			lw[d.dest] = s.fetched
		}
		s.completeAt = append(s.completeAt, -1)
		s.winLen++
		s.unissuedNext[sl] = -1
		if s.unissuedTail >= 0 {
			s.unissuedNext[s.unissuedTail] = int32(sl)
		} else {
			s.unissuedHead = int32(sl)
		}
		s.unissuedTail = int32(sl)
		s.fetched++
	}
}

// ready reports whether all producers of e have completed by cycle.
// Producers whose completion cycle became known since the last check are
// folded into readyAt and dropped, so an entry that stays in the window for
// many cycles settles to a single integer comparison.
func (s *sim) ready(e *entry) bool {
	n := 0
	for i := 0; i < e.nProds; i++ {
		w := e.prods[i]
		if c := s.completeAt[w]; c >= 0 {
			if c > e.readyAt {
				e.readyAt = c
			}
			continue
		}
		e.prods[n] = w
		n++
	}
	e.nProds = n
	return n == 0 && e.readyAt <= s.cycle
}

// freeUnit returns the index of a free instance of unit u, or -1.
func (s *sim) freeUnit(u isa.Unit) int {
	for i, busyUntil := range s.unitBusyUntil[u] {
		if busyUntil <= s.cycle {
			return i
		}
	}
	return -1
}

// issue dispatches up to IssueWidth ready instructions and returns how many
// it issued. It walks the unissued chain in age order — the same visit
// order as scanning the whole window and skipping issued entries — and
// unlinks instructions as they dispatch.
func (s *sim) issue() int {
	issued := 0
	width := s.cfg.IssueWidth
	prev := int32(-1)
	for sl := s.unissuedHead; sl >= 0; {
		if issued >= width {
			break
		}
		e := &s.win[sl]
		next := s.unissuedNext[sl]
		d := e.d
		if s.ready(e) {
			if k := s.freeUnit(d.unit); k >= 0 {
				s.unitBusyUntil[d.unit][k] = s.cycle + d.block
				e.issued = true
				s.completeAt[e.dyn] = s.cycle + d.latency
				s.addCharge(s.cycle, d.block, d.charge)
				s.issued++
				issued++
				if prev >= 0 {
					s.unissuedNext[prev] = next
				} else {
					s.unissuedHead = next
				}
				if next < 0 {
					s.unissuedTail = prev
				}
				sl = next
				continue
			}
		}
		if !s.cfg.OutOfOrder {
			break // in-order: a stalled instruction blocks younger ones
		}
		prev = sl
		sl = next
	}
	return issued
}

// retire removes completed instructions from the head of the window.
func (s *sim) retire() {
	n := 0
	lim := 2 * s.cfg.IssueWidth
	for n < s.winLen && n < lim {
		e := &s.win[(s.winHead+n)&s.winMask]
		if !e.issued || s.completeAt[e.dyn] > s.cycle {
			break
		}
		n++
	}
	if n > 0 {
		s.winHead = (s.winHead + n) & s.winMask
		s.winLen -= n
	}
}

// run simulates until minSteadyCycles of steady state have elapsed and
// returns the full recorded history. The Result of the run — or of any run
// with a shorter steady window — is synthesized from the history by
// traceHist.synth.
func (s *sim) run(minSteadyCycles int) (*traceHist, error) {
	warmupCycle := -1
	limit := minSteadyCycles*64 + 100000
	for {
		if s.cycle > limit {
			return nil, steadyStateErr(minSteadyCycles)
		}
		if warmupCycle >= 0 && s.extrapolate(warmupCycle, minSteadyCycles, limit) {
			break
		}
		s.retire()
		issued := s.issue()
		s.fetch()
		if warmupCycle < 0 && len(s.iterStarts) > warmupIters {
			warmupCycle = s.iterStarts[warmupIters]
		}
		s.addCharge(s.cycle, 1, s.cfg.BaseCharge+float64(s.cfg.IssueWidth-issued)*s.cfg.IdleSlotCharge)
		s.cumIssued = append(s.cumIssued, int64(s.issued))
		s.cycle++
		if warmupCycle >= 0 && s.cycle-warmupCycle >= minSteadyCycles {
			break
		}
	}
	// Fold the difference array into the per-cycle trace, dropping the
	// in-flight charge beyond the final simulated cycle so the trace length
	// equals the cycle count.
	charge := make([]float64, s.cycle)
	var acc float64
	for i := range charge {
		acc += s.chargeDiff[i]
		charge[i] = acc
	}
	h := &traceHist{
		cfg:        s.cfg,
		charge:     charge,
		cumIssued:  s.cumIssued,
		iterStarts: s.iterStarts,
		warmup:     warmupCycle,
		steady:     s.cycle - warmupCycle,
	}
	// The history owns cumIssued and iterStarts from here on; detach them so
	// a pooled sim can never scribble over a primed trace.
	s.cumIssued, s.iterStarts = nil, nil
	return h, nil
}

// extrapolatedCycles counts simulation cycles skipped by extrapolation.
var extrapolatedCycles atomic.Uint64

// ExtrapolatedCycles returns the total simulation cycles skipped by
// steady-state extrapolation since process start.
func ExtrapolatedCycles() uint64 { return extrapolatedCycles.Load() }

// signature appends a normalized encoding of the complete scheduler state
// to sig and returns it. Two cycle boundaries with equal signatures evolve
// identically from there on (shifted in time by their cycle distance and in
// dynamic indices by their fetch distance): the encoding covers everything
// the per-cycle stages read — fetch phase, window contents with unresolved
// producers as window-relative ages, wakeup watermarks, the rename map and
// unit reservations — with every cycle count rebased to the boundary and
// every already-elapsed count collapsed to one value, since values in the
// past compare identically against all future cycles.
func (s *sim) signature(sig []uint64) []uint64 {
	c, fetched := s.cycle, s.fetched
	put := func(v int) { sig = append(sig, uint64(int64(v))) }
	put(fetched % len(s.seq))
	put(s.winLen)
	for i := 0; i < s.winLen; i++ {
		e := &s.win[(s.winHead+i)&s.winMask]
		put(e.d.pos)
		if e.issued {
			put(-1)
			if ca := s.completeAt[e.dyn]; ca > c {
				put(ca - c)
			} else {
				put(0)
			}
			continue
		}
		put(e.nProds)
		if e.readyAt > c {
			put(e.readyAt - c)
		} else {
			put(0)
		}
		for j := 0; j < e.nProds; j++ {
			put(fetched - e.prods[j])
		}
	}
	for f := range s.lastWriter {
		for _, w := range s.lastWriter[f] {
			if w < 0 {
				put(-2)
				continue
			}
			if ca := s.completeAt[w]; ca < 0 {
				put(fetched - w + 1<<30) // unissued: window-relative identity
			} else if ca > c {
				put(ca - c + 1<<40) // completes in the future
			} else {
				put(-1) // completed in the past: interchangeable
			}
		}
	}
	for u := range s.unitBusyUntil {
		for _, b := range s.unitBusyUntil[u] {
			if b > c {
				put(b - c)
			} else {
				put(0)
			}
		}
	}
	return sig
}

// extrapolate fast-forwards an exactly periodic steady state. At the first
// cycle boundary after each iteration start it compares the normalized
// scheduler state against the recent anchors in the signature ring; a match
// at cycle distance p proves cycles will repeat with period p. One period
// later the remaining trace is synthesized by replicating the last p cycles
// and the per-cycle simulation stops.
//
// Bit-identity: signature equality at (c0, c1 = c0+p) means every cycle
// t >= c1 issues the same instructions with the same charges in the same
// order as cycle t-p. Firing at cycle >= c1+p with p covering the longest
// charge span makes every addend into both the template [cycle-p, cycle)
// and the replicated region come from issues at t >= c1 — mirrored ones —
// so each chargeDiff slot past the anchor receives the same addends in the
// same order as its template counterpart, the template itself is final,
// and issue counts and iteration starts repeat with integer period
// arithmetic. The folded trace, and every Result synthesized from it, is
// bit-identical to continued simulation.
func (s *sim) extrapolate(warmupCycle, minSteadyCycles, limit int) bool {
	if s.pendingP < 0 {
		return false
	}
	end := warmupCycle + minSteadyCycles
	if s.pendingP > 0 {
		if s.cycle < s.pendingAt || end <= s.cycle {
			return false
		}
		return s.fastForward(end, s.pendingP)
	}
	if len(s.iterStarts) == s.seenIters {
		return false
	}
	s.seenIters = len(s.iterStarts)
	if end-1 > limit {
		// A fresh run would hit its cycle limit before reaching this much
		// steady state; simulate into that error instead of skipping it.
		s.pendingP = -1
		return false
	}
	slot := s.sigCount % sigRing
	sig := s.signature(s.sigs[slot][:0])
	s.sigs[slot] = sig
	s.sigCycles[slot] = s.cycle
	s.sigCount++
	limitBack := s.sigCount
	if limitBack > sigRing {
		limitBack = sigRing
	}
	for back := 1; back < limitBack; back++ {
		j := (slot - back + sigRing) % sigRing
		p := s.cycle - s.sigCycles[j]
		if p < s.maxBlock {
			// Periods shorter than the longest charge span would let
			// pre-template spans leak into the replicated region; a longer
			// (older-anchor) period may still qualify.
			continue
		}
		if slices.Equal(sig, s.sigs[j]) {
			s.pendingP = p
			s.pendingAt = s.cycle + p
			break
		}
	}
	return false
}

// fastForward synthesizes the trace from s.cycle to end given proven period
// p, leaving the sim positioned exactly where continued simulation would
// have ended.
func (s *sim) fastForward(end, p int) bool {
	if len(s.chargeDiff) < end {
		if end <= cap(s.chargeDiff) {
			s.chargeDiff = s.chargeDiff[:end]
		} else {
			grown := make([]float64, end, end+end/2)
			copy(grown, s.chargeDiff)
			s.chargeDiff = grown
		}
	}
	for c := s.cycle; c < end; c++ {
		s.chargeDiff[c] = s.chargeDiff[c-p]
	}
	dI := s.cumIssued[s.cycle-1] - s.cumIssued[s.cycle-1-p]
	for c := s.cycle; c < end; c++ {
		s.cumIssued = append(s.cumIssued, s.cumIssued[c-p]+dI)
	}
	lo := sort.SearchInts(s.iterStarts, s.cycle-p)
	n0 := len(s.iterStarts)
	for m := 1; ; m++ {
		added := false
		for i := lo; i < n0; i++ {
			if nt := s.iterStarts[i] + m*p; nt < end {
				s.iterStarts = append(s.iterStarts, nt)
				added = true
			}
		}
		if !added {
			break
		}
	}
	extrapolatedCycles.Add(uint64(end - s.cycle))
	s.issued = int(s.cumIssued[end-1])
	s.cycle = end
	return true
}

func steadyStateErr(minSteadyCycles int) error {
	return fmt.Errorf("uarch: simulation did not reach steady state within %d cycles", minSteadyCycles*64+100000)
}

// traceHist is the recorded history of one simulation: everything needed to
// synthesize the Result of a run with the same or a shorter steady window.
// All slices are immutable once built and shared read-only.
type traceHist struct {
	cfg        *Config
	charge     []float64 // per-cycle switching charge for the whole run
	cumIssued  []int64   // cumIssued[c]: instructions issued through cycle c
	iterStarts []int     // fetch cycle of each iteration's first instruction
	warmup     int       // first steady-state cycle
	steady     int       // steady cycles simulated; len(charge) == warmup+steady
}

// covers reports whether the history is long enough to synthesize a run
// with the given steady window.
func (h *traceHist) covers(minSteadyCycles int) bool {
	return h.warmup+minSteadyCycles <= len(h.charge)
}

// synth reconstructs the exact Result a fresh Run with the given steady
// window would produce. The simulator is deterministic and charge spans
// only extend forward in time, so a shorter run is a strict prefix of a
// longer one: its trace is a slice of the recorded trace, its iteration
// count is the number of recorded iteration starts before its end cycle,
// and its loop/IPC statistics recompute from the recorded prefix — all
// bit-identical to re-simulating.
func (h *traceHist) synth(minSteadyCycles int) (*Result, error) {
	end := h.warmup + minSteadyCycles
	if limit := minSteadyCycles*64 + 100000; end-1 > limit {
		// A fresh run would hit its cycle limit before reaching this much
		// steady state; reproduce its failure.
		return nil, steadyStateErr(minSteadyCycles)
	}
	iters := sort.SearchInts(h.iterStarts, end)
	res := &Result{
		Config:     h.cfg,
		Charge:     h.charge[:end:end],
		Warmup:     h.warmup,
		Iterations: iters,
	}
	res.LoopCycles = h.loopCyclesAt(end, iters)
	res.IPC = float64(h.cumIssued[end-1]-h.cumIssued[h.warmup]) / float64(minSteadyCycles)
	return res, nil
}

// loopCyclesAt computes the steady-state cycles-per-iteration statistic of
// a prefix run ending at cycle end with iters recorded iteration starts —
// the LoopCycles field synth fills. The last few iterations are excluded:
// fetch runs ahead of issue by the window occupancy, and occupancy drift at
// the very end of the run would bias the average. Shared between synth and
// Trace.LoopCyclesAt so a batched sizing pass that needs only the period
// reads the identical value without materializing a Result.
func (h *traceHist) loopCyclesAt(end, iters int) float64 {
	last := iters - 1
	if last-4 > warmupIters {
		last -= 4
	}
	if last > warmupIters {
		return float64(h.iterStarts[last]-h.iterStarts[warmupIters]) / float64(last-warmupIters)
	}
	return float64(end) / float64(iters)
}
