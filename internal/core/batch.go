package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
	"repro/internal/em"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/slab"
)

// BatchStats summarizes the bench's generation-batched EM evaluations for
// the CLIs' -v output.
type BatchStats struct {
	Batches    uint64 // MeasureBatch calls
	Items      uint64 // individuals across all batches
	Measured   uint64 // individuals actually measured after dedup + memo
	DedupHits  uint64 // individuals served by an identical batchmate
	MemoHits   uint64 // individuals served by the cross-generation memo
	ArenaBytes uint64 // high-water slab bytes across one batch's workers
	Workers    uint64 // distinct worker slots exercised by the widest batch
}

// String renders the stats as the one-line summary the CLIs print.
func (s BatchStats) String() string {
	return fmt.Sprintf("batch eval: %d batches / %d items (%d measured), %d dedup hits / %d memo hits, arena high-water %d B, %d worker slots",
		s.Batches, s.Items, s.Measured, s.DedupHits, s.MemoHits, s.ArenaBytes, s.Workers)
}

// batchMemoCap bounds the measurement memo: a few generations of a large
// population.
const batchMemoCap = 512

// batchMemoKey identifies a finished EM measurement by content: the load's
// content hash plus everything else the measured value depends on. Entries
// are tiny (three floats), so memoized repeats — elites re-measured every
// generation, converged clones, a lab client's repeated MEASURE of one
// running load — skip the whole pipeline, including the simulator.
type batchMemoKey struct {
	load uint64
	// spec is the domain's Spec content hash: one bench's domains share the
	// memo, so two domains with equal EM paths and operating points must
	// still key apart.
	spec uint64
	// em is the content hash of the receive chain (antenna parameters and
	// the domain's coupling path): a shallow bench copy with a retuned
	// antenna shares batchState, and without this field it would be served
	// another antenna's memoized fitness.
	em             uint64
	powered        int
	clock, supply  float64
	dt             float64
	n, samples     int
	bandLo, bandHi float64
}

// emIdentity content-hashes everything between the domain's feed current
// and the analyzer input: the antenna's response parameters and the
// domain's radiating path. Together with the key's band and sample fields
// it pins the memoized value to the full receive chain.
func emIdentity(ant em.Antenna, path em.Path) uint64 {
	h := detrand.NewHash()
	h.Float64(ant.SelfResonanceHz)
	h.Float64(ant.Q)
	h.Float64(ant.FeedOhms)
	h.Float64(ant.SystemOhms)
	h.Float64(path.DistanceM)
	h.Float64(path.CouplingK)
	h.Float64(path.RefHz)
	h.Float64(path.RefDistanceM)
	return h.Sum()
}

type batchMemoEnt struct {
	key batchMemoKey
	m   instrument.Measurement
}

// batchState is the per-bench state behind MeasureBatch: the measurement
// memo, the recycled worker arenas, and the stats counters. It hangs off
// the Bench as a pointer so re-sampled shallow bench copies share it (the
// memo key carries the sample count).
type batchState struct {
	mu        sync.Mutex
	memo      map[batchMemoKey]*list.Element
	order     list.List // front = most recently used *batchMemoEnt
	arenaPool sync.Pool // *slab.Arena

	// probeMu guards probes, the per-domain memo of the built probe loop
	// (deterministic in the domain spec, so sweep campaigns skip rebuilding
	// the ISA pool and chaining the sequence on every call).
	probeMu sync.Mutex
	probes  map[*platform.Domain][]isa.Inst

	batches, items, measured, dedup, memoHits atomic.Uint64
	arenaBytes, workerSlots                   atomic.Uint64
}

func newBatchState() *batchState {
	return &batchState{memo: make(map[batchMemoKey]*list.Element)}
}

// benchBatchMu guards lazy batch-state creation for benches that were not
// built by NewBench (zero-value literals in tests).
var benchBatchMu sync.Mutex

func (b *Bench) batchSt() *batchState {
	benchBatchMu.Lock()
	defer benchBatchMu.Unlock()
	if b.batch == nil {
		b.batch = newBatchState()
	}
	return b.batch
}

// BatchStats returns the bench's generation-batched evaluation counters.
func (b *Bench) BatchStats() BatchStats {
	st := b.batchSt()
	return BatchStats{
		Batches:    st.batches.Load(),
		Items:      st.items.Load(),
		Measured:   st.measured.Load(),
		DedupHits:  st.dedup.Load(),
		MemoHits:   st.memoHits.Load(),
		ArenaBytes: st.arenaBytes.Load(),
		Workers:    st.workerSlots.Load(),
	}
}

func (st *batchState) memoGet(k batchMemoKey) (instrument.Measurement, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.memo[k]
	if !ok {
		return instrument.Measurement{}, false
	}
	st.order.MoveToFront(el)
	return el.Value.(*batchMemoEnt).m, true
}

func (st *batchState) memoAdd(k batchMemoKey, m instrument.Measurement) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.memo[k]; ok {
		// A concurrent worker measured the same pure value; keep the first.
		st.order.MoveToFront(el)
		return
	}
	st.memo[k] = st.order.PushFront(&batchMemoEnt{key: k, m: m})
	for len(st.memo) > batchMemoCap {
		back := st.order.Back()
		st.order.Remove(back)
		delete(st.memo, back.Value.(*batchMemoEnt).key)
	}
}

func (st *batchState) getArena() *slab.Arena {
	if ar, _ := st.arenaPool.Get().(*slab.Arena); ar != nil {
		return ar
	}
	return &slab.Arena{}
}

func (st *batchState) putArena(ar *slab.Arena) {
	ar.Reset()
	st.arenaPool.Put(ar)
}

// MeasureBatch implements ga.BatchMeasurer: one call evaluates the whole
// generation with intra-batch dedup, the cross-generation memo and slab
// arenas, bit-identical to per-individual Measure calls at any parallelism.
func (m emMeasurer) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	loads := make([]platform.Load, len(items))
	for i, it := range items {
		loads[i] = platform.Load{Seq: it.Seq, ActiveCores: m.activeCores}
	}
	meas, err := m.b.emMeasureBatch(m.d, loads, m.b.Samples, parallelism)
	if err != nil {
		return nil, err
	}
	results := make([]ga.BatchResult, len(meas))
	for i, r := range meas {
		results[i] = ga.BatchResult{Fitness: r.PeakDBm, DominantHz: r.PeakHz}
	}
	return results, nil
}

// emMeasureBatch is the bench's one EM measurement path: every load is
// measured on domain d at its current operating point, with intra-batch
// dedup, the in-memory memo and the disk tier in front of the pipeline.
// EMMeasureN is a batch of one.
func (b *Bench) emMeasureBatch(d *platform.Domain, loads []platform.Load, samples, parallelism int) ([]instrument.Measurement, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: %d samples", samples)
	}
	st := b.batchSt()
	results := make([]instrument.Measurement, len(loads))
	if len(loads) == 0 {
		return results, nil
	}

	// One operating-point snapshot keys the whole batch. The GA holds the
	// domain fixed across a generation; re-tuning it mid-batch is outside
	// the contract, just as it is for a half-measured scalar generation.
	clock, supply, powered := d.ClockHz(), d.SupplyVolts(), d.PoweredCores()

	// Dedup identical loads by content hash: at a fixed operating point the
	// measured value is a pure function of the load (instrument noise is
	// content-derived, never order- or index-derived), so one measurement
	// fans out to every duplicate bit-identically. The memo then carries
	// results across calls — elites re-measured every generation, clones of
	// already-measured parents — under the same 64-bit content key.
	emID := emIdentity(b.Platform.Antenna, d.Spec.EMPath)
	specHash := d.SpecContentHash()
	disk := newMeasDisk(b)
	firstOf := make(map[uint64]int, len(loads))
	dupOf := make([]int, len(loads))
	keys := make([]batchMemoKey, len(loads))
	work := make([]int, 0, len(loads))
	var dedup, memoHits uint64
	for i := range loads {
		h := loads[i].Hash()
		keys[i] = batchMemoKey{load: h, spec: specHash, em: emID, powered: powered, clock: clock, supply: supply,
			dt: b.Dt, n: b.N, samples: samples, bandLo: b.Band.Lo, bandHi: b.Band.Hi}
		if j, ok := firstOf[h]; ok {
			dupOf[i] = j
			dedup++
			continue
		}
		firstOf[h] = i
		dupOf[i] = -1
		if m, ok := st.memoGet(keys[i]); ok {
			results[i] = m
			memoHits++
			continue
		}
		// The persistent tier holds measurements from earlier processes (or
		// concurrent ones sharing the cache directory); a hit feeds the
		// in-memory memo so the rest of the campaign never re-reads disk.
		if m, ok := disk.get(keys[i]); ok {
			results[i] = m
			st.memoAdd(keys[i], m)
			memoHits++
			continue
		}
		work = append(work, i)
	}

	// Each worker slot owns one arena for the whole batch: rows live for a
	// single individual and the per-item Reset rewinds them in O(1), so the
	// arena's footprint is one individual's slab set, retained across
	// batches via the pool.
	//
	// The parallelism setting is resolved exactly once: ForEachWorker takes
	// a literal worker count and never maps <=0 to "all CPUs" itself, so the
	// resolved value must be what reaches it — passing the raw setting would
	// run the whole batch inline on one worker while the arenas are sized
	// for par.Workers(parallelism) slots.
	workers := par.Workers(parallelism)
	if workers > len(work) {
		workers = len(work)
	}
	arenas := make([]*slab.Arena, workers)
	used := make([]atomic.Bool, workers)
	for w := range arenas {
		arenas[w] = st.getArena()
	}
	err := par.ForEachWorker(workers, len(work), func(w, k int) error {
		i := work[k]
		used[w].Store(true)
		ar := arenas[w]
		ar.Reset()
		freqs, _, iAmp, _, err := d.SpectraArena(loads[i], b.Dt, b.N, ar)
		if err != nil {
			return err
		}
		watts := ar.FloatsUninit(len(freqs)) // CombineInto clears before folding
		if _, err := em.CombineInto(watts, b.Platform.Antenna, []em.Emitter{
			{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
		}); err != nil {
			return err
		}
		meas, err := b.Analyzer.MeasurePeak(freqs, watts, b.Band.Lo, b.Band.Hi, samples)
		if err != nil {
			return err
		}
		results[i] = *meas
		st.memoAdd(keys[i], *meas)
		disk.put(keys[i], *meas)
		return nil
	})
	var arenaTotal uint64
	for _, ar := range arenas {
		arenaTotal += uint64(ar.HighWater())
		st.putArena(ar)
	}
	var slotsUsed uint64
	for w := range used {
		if used[w].Load() {
			slotsUsed++
		}
	}
	for {
		cur := st.workerSlots.Load()
		if slotsUsed <= cur || st.workerSlots.CompareAndSwap(cur, slotsUsed) {
			break
		}
	}
	st.batches.Add(1)
	st.items.Add(uint64(len(loads)))
	st.measured.Add(uint64(len(work)))
	st.dedup.Add(dedup)
	st.memoHits.Add(memoHits)
	for {
		cur := st.arenaBytes.Load()
		if arenaTotal <= cur || st.arenaBytes.CompareAndSwap(cur, arenaTotal) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range loads {
		if j := dupOf[i]; j >= 0 {
			results[i] = results[j]
		}
	}
	return results, nil
}
