package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
	"repro/internal/em"
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
	Measured   uint64 // individuals actually measured after dedup and the store
	DedupHits  uint64 // individuals served by an identical batchmate
	MemoHits   uint64 // individuals served by the persistent store (SetPersistentStore)
	ArenaBytes uint64 // high-water slab bytes across one batch's workers
	Workers    uint64 // distinct worker slots exercised by the widest batch
}

// String renders the stats as the one-line summary the CLIs print.
func (s BatchStats) String() string {
	return fmt.Sprintf("batch eval: %d batches / %d items (%d measured), %d dedup hits / %d store hits, arena high-water %d B, %d worker slots",
		s.Batches, s.Items, s.Measured, s.DedupHits, s.MemoHits, s.ArenaBytes, s.Workers)
}

// batchMemoKey identifies a finished EM measurement by content: the load's
// content hash plus everything else the measured value depends on. It is
// the persistent store's identity (measDiskKey), so a record written by
// one process serves every bench, in any process, that would measure the
// same value, and no other.
type batchMemoKey struct {
	load uint64
	// spec is the domain's Spec content hash: two domains with equal EM
	// paths and operating points must still key apart.
	spec uint64
	// em is the content hash of the receive chain (antenna parameters and
	// the domain's coupling path): a bench with a retuned antenna must not
	// be served another antenna's fitness.
	em uint64
	// ana is the analyzer's content hash (model, span, RBW, noise
	// parameters and noise seed): another analyzer's readings carry its
	// own noise.
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
// it pins the stored value to the full receive chain.
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

// batchState is the per-bench state behind MeasureBatch: the recycled
// worker arenas and the stats counters. It hangs off the Bench as a
// pointer so re-sampled shallow bench copies share it.
type batchState struct {
	arenaPool sync.Pool // *slab.Arena

	// probeMu guards probes, the per-domain memo of the built probe loop
	// (deterministic in the domain spec, so sweep campaigns skip rebuilding
	// the ISA pool and chaining the sequence on every call).
	probeMu sync.Mutex
	probes  map[*platform.Domain][]isa.Inst

	batches, items, measured, dedup, storeHits atomic.Uint64
	arenaBytes, workerSlots                    atomic.Uint64
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
		MemoHits:   st.storeHits.Load(),
		ArenaBytes: st.arenaBytes.Load(),
		Workers:    st.workerSlots.Load(),
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

// EMMeasureBatch is the bench's one EM measurement path: every load is
// measured on domain d at its powered cores, maximum clock and nominal
// supply, through runBatch with the persistent store (when one is
// installed) in front of the pipeline, on up to parallelism workers; a GA
// measurer's Measure is a batch of one. A non-nil emit streams the
// results as runBatch's does (the lab daemon answers a multi-part MEASURE
// one line per part).
func (b *Bench) EMMeasureBatch(d *platform.Domain, loads []platform.Load, samples, parallelism int,
	emit func(i int, m instrument.Measurement) error) ([]instrument.Measurement, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: %d samples", samples)
	}
	st := b.batchSt()

	// The view's powered cores key the whole batch; clock and supply are
	// the spec's maximum and nominal. Each distinct load has one 64-bit
	// identity in the store.
	clock, supply, powered := d.ClockHz(), d.SupplyVolts(), d.PoweredCores()
	emID := emIdentity(b.Platform.Antenna, d.Spec.EMPath)
	specHash := d.SpecContentHash()
	anaHash := b.Analyzer.ContentHash()
	disk := measPersist.Load()
	keys := make([]batchMemoKey, len(loads))
	ids := make([]uint64, len(loads))
	known := func(i int, h uint64) (instrument.Measurement, bool) {
		keys[i] = batchMemoKey{load: h, spec: specHash, em: emID, ana: anaHash, powered: powered,
			clock: clock, supply: supply, dt: b.Dt, n: b.N, samples: samples, bandLo: b.Band.Lo, bandHi: b.Band.Hi}
		ids[i] = measDiskKey(keys[i])
		// The store holds measurements from earlier processes, or
		// concurrent ones sharing the cache directory.
		return measGet(disk, ids[i], keys[i])
	}
	return runBatch(st, loads, parallelism, known, func(ar *slab.Arena, i int) (instrument.Measurement, error) {
		freqs, iAmp, _, err := d.SpectraArena(loads[i], b.Dt, b.N, ar)
		if err != nil {
			return instrument.Measurement{}, err
		}
		watts := ar.FloatsUninit(len(freqs)) // CombineInto clears before folding
		if _, err := em.CombineInto(watts, b.Platform.Antenna, []em.Emitter{
			{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
		}); err != nil {
			return instrument.Measurement{}, err
		}
		meas, err := b.Analyzer.MeasurePeak(freqs, watts, b.Band.Lo, b.Band.Hi, samples)
		if err != nil {
			return instrument.Measurement{}, err
		}
		measPut(disk, ids[i], keys[i], *meas)
		return *meas, nil
	}, emit)
}

// runBatch is the bench's one batch driver, every metric's: it dedups the
// loads by content hash, serves a distinct load (index i, hash h) from
// known when that reports one (the EM persistent store; nil serves
// none), and runs measure on the rest, on up to parallelism workers, each
// with one recycled arena for the whole batch. Dedup is exact because at
// a fixed operating point a reading is a pure function of the load
// (instrument noise is content-derived, never order- or index-derived),
// so one measurement fans out to every duplicate bit-identically.
//
// A non-nil emit receives every result in index order as soon as it and
// all results before it are known, so a caller can stream a long batch;
// an emit error stops the batch and is returned.
func runBatch[T any](st *batchState, loads []platform.Load, parallelism int,
	known func(i int, h uint64) (T, bool), measure func(ar *slab.Arena, i int) (T, error),
	emit func(i int, v T) error) ([]T, error) {
	results := make([]T, len(loads))
	if len(loads) == 0 {
		return results, nil
	}
	firstOf := make(map[uint64]int, len(loads))
	dupOf := make([]int, len(loads))
	work := make([]int, 0, len(loads))
	var dedup, stored uint64
	for i := range loads {
		h := loads[i].Hash()
		if j, ok := firstOf[h]; ok {
			dupOf[i] = j
			dedup++
			continue
		}
		firstOf[h] = i
		dupOf[i] = -1
		if known != nil {
			if v, ok := known(i, h); ok {
				results[i] = v
				stored++
				continue
			}
		}
		work = append(work, i)
	}
	// The counters are final once the batch is planned; counting before any
	// result streams out keeps them current for whoever reads a reply.
	st.batches.Add(1)
	st.items.Add(uint64(len(loads)))
	st.measured.Add(uint64(len(work)))
	st.dedup.Add(dedup)
	st.storeHits.Add(stored)
	var order *inOrder[T]
	if emit != nil {
		order = &inOrder[T]{emit: emit, results: results, dupOf: dupOf, ready: make([]bool, len(loads))}
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
		v, err := measure(ar, i)
		if err != nil {
			return err
		}
		results[i] = v
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
type inOrder[T any] struct {
	mu      sync.Mutex
	emit    func(i int, v T) error
	results []T
	dupOf   []int
	ready   []bool
	next    int
	err     error
}

// done marks results[i] final (i < 0 marks nothing) and emits what is now
// ready. A nil receiver is a batch nobody streams.
func (o *inOrder[T]) done(i int) error {
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
