package core

import (
	"fmt"
	"math"
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

// storeServesTwin requires the installed store to serve a fresh bench,
// built like the one that measured want, every one of want's readings bit
// for bit: the retargeted-key tests below would pass vacuously if the
// store served nothing.
func storeServesTwin(t *testing.T, want []instrument.Measurement, measure func(*Bench, *platform.Platform) []instrument.Measurement) {
	t.Helper()
	b, p := testBench(t)
	if got := measure(b, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("store-served readings %+v, measured %+v", got, want)
	}
	if bs := b.BatchStats(); bs.Measured != 0 || bs.MemoHits != uint64(len(want)) {
		t.Fatalf("a twin bench's repeat counted as %+v, want %d store hits", bs, len(want))
	}
}

// TestMeasStoreKeyedByReceiveChain is the stale-reading regression: the
// persistent store serves every bench in the process, so a bench with a
// retuned antenna must miss the original antenna's records. Before the em
// field joined the key, it was served their fitness values verbatim.
func TestMeasStoreKeyedByReceiveChain(t *testing.T) {
	b0, p0 := testBench(t)
	rng := rand.New(rand.NewSource(17))
	pool := dom(t, p0, platform.DomainA72).Spec.Pool()
	var loads []platform.Load
	for i := 0; i < 8; i++ {
		loads = append(loads, platform.Load{Seq: pool.RandomSequence(rng, 30), ActiveCores: 2})
	}
	retune := func(b *Bench) *Bench {
		b2 := *b
		plat := *b.Platform
		plat.Antenna.SelfResonanceHz *= 1.25
		plat.Antenna.Q *= 0.8
		b2.Platform = &plat
		return &b2
	}
	measure := func(b *Bench, p *platform.Platform) []instrument.Measurement {
		ms, err := b.EMMeasureBatch(dom(t, p, platform.DomainA72), loads, b.Samples, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	// Ground truth, measured before any store is installed.
	want := measure(retune(b0), p0)

	withMeasStore(t, openStore(t, t.TempDir()))
	b1, p1 := testBench(t)
	first := measure(b1, p1)
	got := measure(retune(b1), p1)
	if reflect.DeepEqual(first, want) {
		t.Fatal("retuning the antenna did not change any measured value; the regression is unobservable")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the store served the original antenna's readings to the retuned bench")
	}
	if bs := b1.BatchStats(); bs.MemoHits != 0 {
		t.Fatalf("two antennas over one population counted as %+v", bs)
	}
	storeServesTwin(t, first, measure)
}

// TestMeasStoreKeyedByDomain: the persistent store serves every domain, so
// two domains whose EM paths and operating points coincide must still key
// apart. Without the domain's spec hash in the key, the second domain was
// served the first domain's reading.
func TestMeasStoreKeyedByDomain(t *testing.T) {
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
	// Ground truth, measured before any store is installed.
	b0, a72, a53fresh := setup()
	l := buildLoad(t, a72, "probe", 2)
	want, err := emMeasure(b0, a53fresh, l, 3)
	if err != nil {
		t.Fatal(err)
	}

	withMeasStore(t, openStore(t, t.TempDir()))
	b, a72, a53 := setup()
	m72, err := emMeasure(b, a72, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := emMeasure(b, a53, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *want == *m72 {
		t.Fatal("the two domains measure alike; the regression is unobservable")
	}
	if *got != *want {
		t.Fatalf("the store served %+v for the A53, a bench without one measures %+v", got, want)
	}
	storeServesTwin(t, []instrument.Measurement{*m72}, func(b *Bench, p *platform.Platform) []instrument.Measurement {
		m, err := emMeasure(b, dom(t, p, platform.DomainA72), l, 3)
		if err != nil {
			t.Fatal(err)
		}
		return []instrument.Measurement{*m}
	})
}

// TestMeasStoreKeyedByAnalyzer: a bench given a re-seeded analyzer must
// measure its own reading for a load the store already holds under the
// original analyzer: the readings carry the analyzer's seeded noise.
func TestMeasStoreKeyedByAnalyzer(t *testing.T) {
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
	measure := func(b *Bench, p *platform.Platform) []instrument.Measurement {
		d := dom(t, p, platform.DomainA72)
		m, err := emMeasure(b, d, buildLoad(t, d, "probe", 2), 3)
		if err != nil {
			t.Fatal(err)
		}
		return []instrument.Measurement{*m}
	}
	// Ground truth, measured before any store is installed.
	b0, p0 := testBench(t)
	want := measure(reseed(b0), p0)

	withMeasStore(t, openStore(t, t.TempDir()))
	b1, p1 := testBench(t)
	first := measure(b1, p1)
	got := measure(reseed(b1), p1)
	if reflect.DeepEqual(first, want) {
		t.Fatal("re-seeding the analyzer did not change the reading; the regression is unobservable")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the store served %+v to the re-seeded bench, a bench without one measures %+v", got, want)
	}
	if bs := b1.BatchStats(); bs.Measured != 2 || bs.MemoHits != 0 {
		t.Fatalf("two analyzers over one load counted as %+v", bs)
	}
	storeServesTwin(t, first, measure)
}

// TestMeasDiskKeyPinned: the identity names every meas record in
// existing cache directories, so a change to its value (field order,
// hash, or a new field) would silently orphan them all.
func TestMeasDiskKeyPinned(t *testing.T) {
	if got, want := measDiskKey(fuzzMeasKey), uint64(0xd257ff944be39b33); got != want {
		t.Fatalf("measDiskKey = %#x, want %#x: existing cache directories would all miss", got, want)
	}
}

// TestVoltageBatchMatchesMeasure: droop and ptp batches run through the
// EM batch driver. On the OC-DSO A72 and the Athlon's bench scope, at
// parallelism 1, 2 and 8, every result of a batch holding two clones
// equals the batch-of-one Measure of its item bit for bit, the clones are
// dedup hits, and nothing is served by the store (voltage readings are
// never stored).
func TestVoltageBatchMatchesMeasure(t *testing.T) {
	juno, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	amd, err := platform.AMDDesktop()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		plat   *platform.Platform
		domain string
		cores  int
	}{{juno, platform.DomainA72, 2}, {amd, platform.DomainAthlon, 4}} {
		d := dom(t, tc.plat, tc.domain)
		rng := rand.New(rand.NewSource(5))
		items := make([]ga.BatchItem, 8)
		for i := range items {
			items[i] = ga.BatchItem{Seq: d.Spec.Pool().RandomSequence(rng, 16)}
		}
		items[4], items[7] = items[1], items[1]
		for _, metric := range []Metric{MetricDroop, MetricPtp} {
			for _, parallelism := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s %s parallelism %d", tc.domain, metric, parallelism)
				b, err := NewBench(tc.plat, 1)
				if err != nil {
					t.Fatal(err)
				}
				m, err := b.Measurer(d, metric, tc.cores, 11)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.MeasureBatch(items, parallelism)
				if err != nil {
					t.Fatal(err)
				}
				want := BatchStats{Batches: 1, Items: 8, Measured: 6, DedupHits: 2}
				if bs := b.BatchStats(); bs.Batches != want.Batches || bs.Items != want.Items ||
					bs.Measured != want.Measured || bs.DedupHits != want.DedupHits || bs.MemoHits != 0 {
					t.Fatalf("%s: stats %+v, want 1 batch of 8 items, 6 measured, 2 dedup hits, 0 store hits", name, bs)
				}
				for i, it := range items {
					fit, hz, err := m.Measure(it.Seq)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got[i].Fitness) != math.Float64bits(fit) ||
						math.Float64bits(got[i].DominantHz) != math.Float64bits(hz) {
						t.Fatalf("%s: item %d batch %+v, Measure (%v, %v)", name, i, got[i], fit, hz)
					}
				}
			}
		}
	}
}
