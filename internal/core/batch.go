package core

import (
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
	em uint64
	// ana is the analyzer's content hash (model, span, RBW, noise
	// parameters and noise seed): a shallow copy given another analyzer
	// shares batchState too, and its readings carry its own noise.
	ana            uint64
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

// batchMemo is an LRU map from a measurement's 64-bit identity
// (measDiskKey, the disk tier's key) to its value, over at most
// batchMemoCap entries. The entries live in one slice that grows on
// demand, linked from most to least recently used by index. Each keeps its
// full key, so a hit is verified and an identity two keys share reads as
// a miss. The zero value is an empty memo.
type batchMemo struct {
	index      map[uint64]int32
	ents       []memoEnt
	head, tail int32 // most and least recently used; valid when ents is not empty
}

type memoEnt struct {
	id         uint64
	key        batchMemoKey
	m          instrument.Measurement
	prev, next int32 // -1 ends the list
}

// memoInitCap is the memo's first allocation: one generation of the
// paper's GA population, so a fresh bench's first batch does not regrow.
const memoInitCap = 64

func (mm *batchMemo) get(id uint64, k batchMemoKey) (instrument.Measurement, bool) {
	i, ok := mm.index[id]
	if !ok || mm.ents[i].key != k {
		return instrument.Measurement{}, false
	}
	mm.toFront(i)
	return mm.ents[i].m, true
}

func (mm *batchMemo) add(id uint64, k batchMemoKey, m instrument.Measurement) {
	if i, ok := mm.index[id]; ok {
		// The same key is a pure value a concurrent worker measured too;
		// keep the first. Another key under the same identity replaces it.
		if mm.ents[i].key != k {
			mm.ents[i].key, mm.ents[i].m = k, m
		}
		mm.toFront(i)
		return
	}
	if mm.index == nil {
		mm.index = make(map[uint64]int32, memoInitCap)
		mm.ents = make([]memoEnt, 0, memoInitCap)
	}
	var i int32
	if len(mm.ents) < batchMemoCap {
		i = int32(len(mm.ents))
		mm.ents = append(mm.ents, memoEnt{prev: -1, next: -1})
		if i == 0 {
			mm.head, mm.tail = 0, 0
		} else {
			mm.pushFront(i)
		}
	} else {
		i = mm.tail
		delete(mm.index, mm.ents[i].id)
		mm.toFront(i)
	}
	mm.ents[i].id, mm.ents[i].key, mm.ents[i].m = id, k, m
	mm.index[id] = i
}

// toFront makes entry i the most recently used.
func (mm *batchMemo) toFront(i int32) {
	if i == mm.head {
		return
	}
	e := &mm.ents[i]
	mm.ents[e.prev].next = e.next
	if e.next >= 0 {
		mm.ents[e.next].prev = e.prev
	} else {
		mm.tail = e.prev
	}
	mm.pushFront(i)
}

// pushFront links the unlinked entry i in front of the current head.
func (mm *batchMemo) pushFront(i int32) {
	mm.ents[i].prev, mm.ents[i].next = -1, mm.head
	mm.ents[mm.head].prev = i
	mm.head = i
}

// batchState is the per-bench state behind MeasureBatch: the measurement
// memo, the recycled worker arenas, and the stats counters. It hangs off
// the Bench as a pointer so re-sampled shallow bench copies share it (the
// memo key carries the sample count).
type batchState struct {
	mu        sync.Mutex
	memo      batchMemo
	arenaPool sync.Pool // *slab.Arena

	// probeMu guards probes, the per-domain memo of the built probe loop
	// (deterministic in the domain spec, so sweep campaigns skip rebuilding
	// the ISA pool and chaining the sequence on every call).
	probeMu sync.Mutex
	probes  map[*platform.Domain][]isa.Inst

	batches, items, measured, dedup, memoHits atomic.Uint64
	arenaBytes, workerSlots                   atomic.Uint64
}

// benchBatchMu guards lazy batch-state creation for benches that were not
// built by NewBench (zero-value literals in tests).
var benchBatchMu sync.Mutex

func (b *Bench) batchSt() *batchState {
	benchBatchMu.Lock()
	defer benchBatchMu.Unlock()
	if b.batch == nil {
		b.batch = &batchState{}
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

func (st *batchState) memoGet(id uint64, k batchMemoKey) (instrument.Measurement, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.memo.get(id, k)
}

func (st *batchState) memoAdd(id uint64, k batchMemoKey, m instrument.Measurement) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.memo.add(id, k, m)
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
	meas, err := m.b.EMMeasureBatch(m.d, loads, m.b.Samples, parallelism, nil)
	if err != nil {
		return nil, err
	}
	results := make([]ga.BatchResult, len(meas))
	for i, r := range meas {
		results[i] = ga.BatchResult{Fitness: r.PeakDBm, DominantHz: r.PeakHz}
	}
	return results, nil
}

// EMMeasureBatch is the bench's one EM measurement path: every load is
// measured on domain d at its powered cores, maximum clock and nominal
// supply, with intra-batch dedup, the in-memory memo and the disk tier in
// front of the pipeline, on up to parallelism workers. EMMeasureN is a
// batch of one.
//
// A non-nil emit receives every result in index order as soon as it and
// all results before it are known, so a caller can stream a long batch
// (the lab daemon answers a multi-part MEASURE one line per part); an
// emit error stops the batch and is returned.
func (b *Bench) EMMeasureBatch(d *platform.Domain, loads []platform.Load, samples, parallelism int,
	emit func(i int, m instrument.Measurement) error) ([]instrument.Measurement, error) {
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

	// The view's powered cores key the whole batch; clock and supply are
	// the spec's maximum and nominal.
	clock, supply, powered := d.ClockHz(), d.SupplyVolts(), d.PoweredCores()

	// Dedup identical loads by content hash: at a fixed operating point the
	// measured value is a pure function of the load (instrument noise is
	// content-derived, never order- or index-derived), so one measurement
	// fans out to every duplicate bit-identically. The memo then carries
	// results across calls — elites re-measured every generation, clones of
	// already-measured parents — under the same 64-bit content key.
	emID := emIdentity(b.Platform.Antenna, d.Spec.EMPath)
	specHash := d.SpecContentHash()
	anaHash := b.Analyzer.ContentHash()
	disk := measPersist.Load()
	firstOf := make(map[uint64]int, len(loads))
	dupOf := make([]int, len(loads))
	keys := make([]batchMemoKey, len(loads))
	ids := make([]uint64, len(loads))
	work := make([]int, 0, len(loads))
	var dedup, memoHits uint64
	for i := range loads {
		h := loads[i].Hash()
		if j, ok := firstOf[h]; ok {
			dupOf[i] = j
			dedup++
			continue
		}
		firstOf[h] = i
		dupOf[i] = -1
		// One identity per distinct load keys both tiers: the memo and
		// the disk store.
		keys[i] = batchMemoKey{load: h, spec: specHash, em: emID, ana: anaHash, powered: powered,
			clock: clock, supply: supply, dt: b.Dt, n: b.N, samples: samples, bandLo: b.Band.Lo, bandHi: b.Band.Hi}
		ids[i] = measDiskKey(keys[i])
		if m, ok := st.memoGet(ids[i], keys[i]); ok {
			results[i] = m
			memoHits++
			continue
		}
		// The persistent tier holds measurements from earlier processes (or
		// concurrent ones sharing the cache directory); a hit feeds the
		// in-memory memo so the rest of the campaign never re-reads disk.
		if m, ok := measGet(disk, ids[i], keys[i]); ok {
			results[i] = m
			st.memoAdd(ids[i], keys[i], m)
			memoHits++
			continue
		}
		work = append(work, i)
	}
	// The counters are final once the batch is planned; counting before any
	// result streams out keeps them current for whoever reads a reply.
	st.batches.Add(1)
	st.items.Add(uint64(len(loads)))
	st.measured.Add(uint64(len(work)))
	st.dedup.Add(dedup)
	st.memoHits.Add(memoHits)
	var order *inOrder
	if emit != nil {
		order = &inOrder{emit: emit, results: results, dupOf: dupOf, ready: make([]bool, len(loads))}
		for i := range order.ready {
			order.ready[i] = true
		}
		for _, i := range work {
			order.ready[i] = false
		}
		if err := order.done(-1); err != nil {
			return nil, err
		}
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
		freqs, iAmp, _, err := d.SpectraArena(loads[i], b.Dt, b.N, ar)
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
		st.memoAdd(ids[i], keys[i], *meas)
		measPut(disk, ids[i], keys[i], *meas)
		return order.done(i)
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

// inOrder streams a batch's results to an emit callback in index order.
// Workers finish out of order; done marks one result final and emits the
// longest run of final results from the cursor on, a duplicate being final
// with its first occurrence, which always comes before it.
type inOrder struct {
	mu      sync.Mutex
	emit    func(i int, m instrument.Measurement) error
	results []instrument.Measurement
	dupOf   []int
	ready   []bool
	next    int
	err     error
}

// done marks results[i] final (i < 0 marks nothing) and emits what is now
// ready. A nil receiver is a batch nobody streams.
func (o *inOrder) done(i int) error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if i >= 0 {
		o.ready[i] = true
	}
	for o.err == nil && o.next < len(o.ready) {
		k := o.next
		if j := o.dupOf[k]; j >= 0 {
			o.results[k] = o.results[j]
		} else if !o.ready[k] {
			break
		}
		o.err = o.emit(k, o.results[k])
		o.next++
	}
	return o.err
}
