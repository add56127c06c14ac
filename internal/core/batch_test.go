package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/platform"
)

// TestMeasureBatchParallelismZero is the -j 0 regression: the raw
// parallelism setting used to reach par.ForEachWorker unresolved, and
// since ForEachWorker treats its worker argument literally, `-j 0` — the
// documented "use every CPU" setting — ran the whole batch inline on one
// worker. The fix resolves the setting once and passes the resolved count
// through, so a zero-parallelism batch must (a) exercise more than one
// worker slot on a multi-core host and (b) stay bit-identical to the
// serial run.
func TestMeasureBatchParallelismZero(t *testing.T) {
	b1, p1 := testBench(t)
	d1 := dom(t, p1, "cortex-a72")
	rng := rand.New(rand.NewSource(9))
	pool := d1.Spec.Pool()
	var items []ga.BatchItem
	for i := 0; i < 24; i++ {
		items = append(items, ga.BatchItem{Seq: pool.RandomSequence(rng, 30)})
	}

	m1 := b1.EMMeasurer(d1, 2)
	bm1, ok := m1.(ga.BatchMeasurer)
	if !ok {
		t.Fatal("EMMeasurer is not a BatchMeasurer")
	}
	got, err := bm1.MeasureBatch(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cpus := runtime.GOMAXPROCS(0); cpus > 1 {
		if w := b1.BatchStats().Workers; w < 2 {
			t.Fatalf("parallelism=0 exercised %d worker slot(s) on a %d-CPU host; the setting was not resolved", w, cpus)
		}
	}

	// Fresh bench, same content: serial run must agree bit for bit.
	b2, p2 := testBench(t)
	d2 := dom(t, p2, "cortex-a72")
	bm2 := b2.EMMeasurer(d2, 2).(ga.BatchMeasurer)
	want, err := bm2.MeasureBatch(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w := b2.BatchStats().Workers; w != 1 {
		t.Fatalf("parallelism=1 exercised %d worker slots, want 1", w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallelism=0 batch differs from serial batch")
	}
}

// TestBatchMemoKeyedByReceiveChain is the stale-memo regression: a shallow
// bench copy with a retuned antenna shares the batch state (that sharing
// is the point — re-sampled copies reuse the memo), and before the em
// field joined the memo key, the copy was served the original antenna's
// fitness values verbatim.
func TestBatchMemoKeyedByReceiveChain(t *testing.T) {
	b1, p1 := testBench(t)
	d1 := dom(t, p1, "cortex-a72")
	rng := rand.New(rand.NewSource(17))
	pool := d1.Spec.Pool()
	var items []ga.BatchItem
	for i := 0; i < 8; i++ {
		items = append(items, ga.BatchItem{Seq: pool.RandomSequence(rng, 30)})
	}
	first, err := b1.EMMeasurer(d1, 2).(ga.BatchMeasurer).MeasureBatch(items, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Shallow copy sharing b1's batch state, with a retuned antenna.
	retune := func(b *Bench) *Bench {
		b2 := *b
		plat := *b.Platform
		plat.Antenna.SelfResonanceHz *= 1.25
		plat.Antenna.Q *= 0.8
		b2.Platform = &plat
		return &b2
	}
	b2 := retune(b1)
	got, err := b2.EMMeasurer(d1, 2).(ga.BatchMeasurer).MeasureBatch(items, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: a fresh bench (private batch state) with the same
	// retuned antenna.
	b3, p3 := testBench(t)
	d3 := dom(t, p3, "cortex-a72")
	b3r := retune(b3)
	want, err := b3r.EMMeasurer(d3, 2).(ga.BatchMeasurer).MeasureBatch(items, 2)
	if err != nil {
		t.Fatal(err)
	}

	if reflect.DeepEqual(first, want) {
		t.Fatal("retuning the antenna did not change any measured value; the regression is unobservable")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shared batch state served the original antenna's memoized results to the retuned bench")
	}
}

// TestBatchMemoKeyedByDomain: one bench's domains share its measurement
// memo, so two domains whose EM paths and operating points coincide must
// still key apart. Without the domain's spec hash in the key, the second
// domain was served the first domain's reading.
func TestBatchMemoKeyedByDomain(t *testing.T) {
	// setup aligns the A53 with the A72 through its spec: same EM path,
	// clock and supply, and the same powered cores, so only the domain
	// itself tells the two apart.
	setup := func() (*Bench, *platform.Domain, *platform.Domain) {
		b, p := testBench(t)
		a72 := dom(t, p, platform.DomainA72)
		spec := dom(t, p, platform.DomainA53).Spec
		spec.EMPath = a72.Spec.EMPath
		spec.MaxClockHz = a72.Spec.MaxClockHz
		spec.PDN.VNominal = a72.Spec.PDN.VNominal
		a53, err := platform.NewDomain(spec)
		if err == nil {
			a53, err = a53.Gated(2)
		}
		if err != nil {
			t.Fatal(err)
		}
		return b, a72, a53
	}
	b, a72, a53 := setup()
	l := buildLoad(t, a72, "probe", 2)
	m72, err := b.EMMeasureN(a72, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.EMMeasureN(a53, l, 3)
	if err != nil {
		t.Fatal(err)
	}

	b2, _, a53fresh := setup()
	want, err := b2.EMMeasureN(a53fresh, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *want == *m72 {
		t.Fatal("the two domains measure alike; the regression is unobservable")
	}
	if *got != *want {
		t.Fatalf("shared memo served %+v for the A53, a fresh bench measures %+v", got, want)
	}
}

// TestBatchMemoKeyedByAnalyzer: a shallow bench copy given a re-seeded
// analyzer shares the batch state, and must measure its own reading for
// a load the original has already memoized: the readings carry the
// analyzer's seeded noise.
func TestBatchMemoKeyedByAnalyzer(t *testing.T) {
	reseed := func(b *Bench) *Bench {
		a := b.Analyzer
		ana, err := instrument.NewSpectrumAnalyzer(a.Model, a.StartHz, a.StopHz, a.RBWHz, a.Seed()+1)
		if err != nil {
			t.Fatal(err)
		}
		ana.NoiseFloorDBm, ana.NoiseSigmaDB = a.NoiseFloorDBm, a.NoiseSigmaDB
		b2 := *b
		b2.Analyzer = ana
		return &b2
	}
	b1, p1 := testBench(t)
	d1 := dom(t, p1, platform.DomainA72)
	first, err := b1.EMMeasureN(d1, buildLoad(t, d1, "probe", 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reseed(b1).EMMeasureN(d1, buildLoad(t, d1, "probe", 2), 3)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: a fresh bench (private batch state) with the same
	// re-seeded analyzer.
	b3, p3 := testBench(t)
	d3 := dom(t, p3, platform.DomainA72)
	want, err := reseed(b3).EMMeasureN(d3, buildLoad(t, d3, "probe", 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if *first == *want {
		t.Fatal("re-seeding the analyzer did not change the reading; the regression is unobservable")
	}
	if *got != *want {
		t.Fatalf("shared batch state served %+v to the re-seeded bench, a fresh bench measures %+v", got, want)
	}
	if bs := b1.BatchStats(); bs.Measured != 2 || bs.MemoHits != 0 {
		t.Fatalf("two analyzers over one load counted as %+v", bs)
	}
}

// TestMeasDiskKeyPinned: the identity names every meas record in
// existing cache directories, so a change to its value (field order,
// hash, or a new field) would silently orphan them all.
func TestMeasDiskKeyPinned(t *testing.T) {
	if got, want := measDiskKey(fuzzMeasKey), uint64(0xd257ff944be39b33); got != want {
		t.Fatalf("measDiskKey = %#x, want %#x: existing cache directories would all miss", got, want)
	}
}

// TestBatchMemoMatchesReferenceLRU drives the index-linked memo and a
// plain recency-ordered list through the same random gets and adds over
// more identities than the memo holds, including identities shared by
// two keys, and requires the same hits, values and residency throughout.
func TestBatchMemoMatchesReferenceLRU(t *testing.T) {
	type refEnt struct {
		id  uint64
		key batchMemoKey
		m   instrument.Measurement
	}
	var ref []refEnt // most recently used first
	refFind := func(id uint64) int {
		for i, e := range ref {
			if e.id == id {
				return i
			}
		}
		return -1
	}
	refFront := func(i int) {
		e := ref[i]
		copy(ref[1:i+1], ref[:i])
		ref[0] = e
	}

	var mm batchMemo
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 20000; op++ {
		id := uint64(rng.Intn(batchMemoCap * 3 / 2))
		// Two keys per identity: a collision whenever they alternate.
		k := batchMemoKey{load: id, samples: 1 + rng.Intn(2)}
		if rng.Intn(2) == 0 {
			got, ok := mm.get(id, k)
			i := refFind(id)
			want := i >= 0 && ref[i].key == k
			if ok != want {
				t.Fatalf("op %d: get(%d, %+v) hit=%v, reference %v", op, id, k, ok, want)
			}
			if want {
				if got != ref[i].m {
					t.Fatalf("op %d: get(%d) = %+v, reference %+v", op, id, got, ref[i].m)
				}
				refFront(i)
			}
			continue
		}
		m := instrument.Measurement{PeakDBm: float64(op)}
		mm.add(id, k, m)
		switch i := refFind(id); {
		case i >= 0:
			if ref[i].key != k {
				ref[i].key, ref[i].m = k, m
			}
			refFront(i)
		default:
			if len(ref) == batchMemoCap {
				ref = ref[:len(ref)-1]
			}
			ref = append([]refEnt{{id, k, m}}, ref...)
		}
		if len(mm.index) != len(ref) || len(mm.ents) != len(ref) {
			t.Fatalf("op %d: memo holds %d/%d entries, reference %d", op, len(mm.index), len(mm.ents), len(ref))
		}
	}
	// The links walk the reference's recency order both ways.
	i := mm.head
	for k, e := range ref {
		if i < 0 || mm.ents[i].id != e.id {
			t.Fatalf("recency position %d: memo entry %d, reference id %d", k, i, e.id)
		}
		if k == len(ref)-1 && i != mm.tail {
			t.Fatalf("tail %d, last entry %d", mm.tail, i)
		}
		i = mm.ents[i].next
	}
	for k, i := len(ref)-1, mm.tail; k >= 0; k, i = k-1, mm.ents[i].prev {
		if mm.ents[i].id != ref[k].id {
			t.Fatalf("backward walk position %d: id %d, reference %d", k, mm.ents[i].id, ref[k].id)
		}
	}
}
