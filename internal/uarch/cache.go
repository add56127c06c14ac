package uarch

// Clock-invariant trace caching.
//
// The simulator works purely in the cycle domain: the charge trace, the
// iteration timestamps and the issue counts depend only on (Config, Seq,
// steady-window length). The clock frequency, the supply voltage, the
// sampling grid and the powered-core count all enter downstream, in the
// power and PDN layers. A clock sweep or a clock×voltage shmoo therefore
// asks for the *identical* simulation at every operating point — only the
// steady-window length varies (proportionally to the clock).
//
// The cache keys on a content hash of the config and the sequence
// (internal/detrand) and stores the longest history simulated for each key.
// Any request covered by the stored history is synthesized from it
// (traceHist.synth), bit-identical to a fresh run; a longer request
// re-simulates with doubling headroom and replaces the entry, so an
// ascending sequence of window lengths costs O(log) simulations instead of
// one per request. Entries are LRU-evicted past a total-cycles budget.
//
// Concurrency: parallel sweep workers all miss the same key at the start of
// a sweep; a per-entry mutex serializes the simulation so the loop runs
// once and the other workers wait for (and share) the result.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
	"repro/internal/isa"
)

// traceCacheMaxCycles bounds the total cycles held across all cached
// histories (each cycle costs 16 bytes of charge + issue history, so this
// is roughly a 32 MiB budget).
const traceCacheMaxCycles = 2 << 20

type traceCache struct {
	mu      sync.Mutex
	entries map[uint64]*traceEntry
	lru     *list.List // front = most recently used; values are *traceEntry
	cycles  int        // total cycles held across resident histories

	hits       atomic.Uint64
	misses     atomic.Uint64
	extensions atomic.Uint64
	evictions  atomic.Uint64
}

type traceEntry struct {
	key  uint64
	cfg  Config // stable copy; shared as Config pointer of synthesized Results
	seq  []isa.Inst
	elem *list.Element

	// simMu serializes simulation and extension for this key; hist is
	// immutable once published and read without the lock on the fast path.
	simMu sync.Mutex
	hist  atomic.Pointer[traceHist]
}

var (
	globalTraceCache = newTraceCache()
	traceCacheOn     atomic.Bool
)

func init() { traceCacheOn.Store(true) }

func newTraceCache() *traceCache {
	return &traceCache{entries: make(map[uint64]*traceEntry), lru: list.New()}
}

// traceKey hashes the full content a simulation depends on: every config
// field and, per instruction, the complete definition and operands.
func traceKey(cfg *Config, seq []isa.Inst) uint64 {
	h := detrand.NewHash()
	hashCfg(h, cfg)
	h.Int(len(seq))
	for _, in := range seq {
		hashInst(h, in)
	}
	return h.Sum()
}

// hashCfg folds every config field a simulation depends on.
func hashCfg(h *detrand.Hash, cfg *Config) {
	h.String(cfg.Name)
	h.Int(boolBit(cfg.OutOfOrder))
	h.Int(cfg.IssueWidth)
	h.Int(cfg.WindowSize)
	for _, n := range cfg.Units {
		h.Int(n)
	}
	h.Float64(cfg.ChargeScale)
	h.Float64(cfg.BaseCharge)
	h.Float64(cfg.IdleSlotCharge)
	h.Float64(cfg.CurrentSlewTau)
}

// hashInst folds one instruction's complete definition and operands.
func hashInst(h *detrand.Hash, in isa.Inst) {
	d := in.Def
	h.String(d.Mnemonic)
	h.Int(int(d.Class))
	h.Int(int(d.Unit))
	h.Int(d.Latency)
	h.Int(d.Block)
	h.Float64(d.Charge)
	h.Int(int(d.RegFile))
	h.Int(d.NSrc)
	h.Int(boolBit(d.DestIsSrc))
	h.Int(int(d.Mem))
	h.Int(boolBit(d.NoDest))
	h.Int(in.Dest)
	h.Int(in.Srcs[0])
	h.Int(in.Srcs[1])
	h.Int(in.Addr)
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameSeq reports whether two sequences are identical in content (the hash
// covers the full content, but equality is still verified on every lookup
// so a hash collision can never mix up two workloads).
func sameSeq(a, b []isa.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dest != b[i].Dest || a[i].Srcs != b[i].Srcs || a[i].Addr != b[i].Addr {
			return false
		}
		if a[i].Def != b[i].Def && *a[i].Def != *b[i].Def {
			return false
		}
	}
	return true
}

// lookup returns the entry for (cfg, seq), creating it if absent, and bumps
// it in the LRU order. ok is false on a hash collision with different
// content, in which case the caller simulates uncached.
func (c *traceCache) lookup(key uint64, cfg *Config, seq []isa.Inst) (e *traceEntry, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, found := c.entries[key]; found {
		if e.cfg != *cfg || !sameSeq(e.seq, seq) {
			return nil, false
		}
		c.lru.MoveToFront(e.elem)
		return e, true
	}
	e = &traceEntry{key: key, cfg: *cfg, seq: append([]isa.Inst(nil), seq...)}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	return e, true
}

// install publishes a new (or extended) history for an entry and evicts the
// least-recently-used entries past the cycle budget. prev is the history
// the caller observed under e.simMu (nil on a first fill).
func (c *traceCache) install(e *traceEntry, prev, h *traceHist) {
	e.hist.Store(h)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, resident := c.entries[e.key]; !resident || cur != e {
		// Evicted while we were simulating; the result is still returned to
		// the caller but no longer accounted for.
		return
	}
	if prev != nil {
		c.cycles -= len(prev.charge)
	}
	c.cycles += len(h.charge)
	for c.cycles > traceCacheMaxCycles && c.lru.Len() > 1 {
		back := c.lru.Back()
		ev := back.Value.(*traceEntry)
		if ev == e {
			break // never evict the entry just refreshed
		}
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		if hh := ev.hist.Load(); hh != nil {
			c.cycles -= len(hh.charge)
		}
		c.evictions.Add(1)
	}
}

// runWindow serves a Run request sized for minSteadyCycles while ensuring
// the cached history covers ensureSteady cycles in the same transaction —
// one key hash, one lookup, one simulation — so a caller that knows it may
// come back for a slightly longer window (period snapping warps the sample
// window by at most 5%) never pays a second simulation or a second probe.
func (c *traceCache) runWindow(cfg Config, seq []isa.Inst, minSteadyCycles, ensureSteady int) (*Result, error) {
	if ensureSteady < minSteadyCycles {
		ensureSteady = minSteadyCycles
	}
	key := traceKey(&cfg, seq)
	e, ok := c.lookup(key, &cfg, seq)
	if !ok {
		// Hash collision with different content: simulate uncached rather
		// than fight over the slot (counted as a miss). Priming headroom is
		// pointless without a cache slot, so size for the request alone.
		c.misses.Add(1)
		hist, err := simulate(&cfg, seq, minSteadyCycles)
		if err != nil {
			return nil, err
		}
		return hist.synth(minSteadyCycles)
	}
	if h := e.hist.Load(); h != nil && h.covers(ensureSteady) {
		c.hits.Add(1)
		return h.synth(minSteadyCycles)
	}
	h, err := c.fill(e, ensureSteady)
	if err != nil {
		// Failure to reach steady state is monotone in the window length,
		// so a fresh run at the requested window fails too; report the
		// error it would have produced.
		return nil, steadyStateErr(minSteadyCycles)
	}
	return h.synth(minSteadyCycles)
}

// fill ensures, under the entry's simulation lock, that the entry's history
// covers ensureSteady cycles — simulating on first fill, extending with
// doubling headroom otherwise — and returns the (possibly pre-existing)
// covering history.
func (c *traceCache) fill(e *traceEntry, ensureSteady int) (*traceHist, error) {
	e.simMu.Lock()
	defer e.simMu.Unlock()
	h := e.hist.Load()
	if h != nil && h.covers(ensureSteady) {
		// Another worker simulated while we waited for the lock.
		c.hits.Add(1)
		return h, nil
	}
	simSteady := ensureSteady
	if h != nil {
		// Extension: double the stored window so a sweep asking for
		// progressively longer steady windows re-simulates O(log) times
		// instead of at every step.
		c.extensions.Add(1)
		if d := 2 * h.steady; d > simSteady {
			simSteady = d
		}
	} else {
		c.misses.Add(1)
		// First fill in this process: the disk tier may hold the history
		// from an earlier process (or a concurrent one sharing the cache
		// directory). A covering entry is installed as-is — synthesis from
		// it is bit-identical to re-simulating. A shorter entry still sets
		// the floor for the simulation window, so the write-through below
		// never shrinks what the store already holds.
		if dh := diskLoad(e); dh != nil {
			if dh.covers(ensureSteady) {
				c.install(e, nil, dh)
				return dh, nil
			}
			if d := 2 * dh.steady; d > simSteady {
				simSteady = d
			}
		}
	}
	h2, err := simulate(&e.cfg, e.seq, simSteady)
	if err != nil {
		return nil, err
	}
	c.install(e, h, h2)
	diskStore(e, h2)
	return h2, nil
}

// CacheStats is a snapshot of the trace cache counters: lookups served from
// a stored history (hits), simulations for never-seen content (misses),
// re-simulations to extend a stored history (extensions), LRU evictions,
// and the current residency.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Extensions uint64
	Evictions  uint64
	Entries    int
	Cycles     int
}

// TraceCacheStats returns the global trace cache counters.
func TraceCacheStats() CacheStats {
	c := globalTraceCache
	c.mu.Lock()
	entries, cycles := len(c.entries), c.cycles
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Extensions: c.extensions.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    entries,
		Cycles:     cycles,
	}
}

// SetTraceCacheEnabled turns the trace cache on or off (it is on by
// default) and returns the previous setting. Disabling is intended for
// benchmarks and determinism tests; results are bit-identical either way.
func SetTraceCacheEnabled(on bool) (prev bool) {
	return traceCacheOn.Swap(on)
}

// TraceCacheEnabled reports whether Run consults the trace cache.
func TraceCacheEnabled() bool { return traceCacheOn.Load() }

// ResetTraceCache drops all cached histories and zeroes the counters.
func ResetTraceCache() {
	c := globalTraceCache
	c.mu.Lock()
	c.entries = make(map[uint64]*traceEntry)
	c.lru.Init()
	c.cycles = 0
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.extensions.Store(0)
	c.evictions.Store(0)
}
