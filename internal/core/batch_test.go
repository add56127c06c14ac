package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ga"
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
	// setup aligns the A53 with the A72: same EM path, clock, supply and
	// powered cores, so only the domain itself tells the two apart.
	setup := func() (*Bench, *platform.Domain, *platform.Domain) {
		b, p := testBench(t)
		a72 := dom(t, p, platform.DomainA72)
		a53 := dom(t, p, platform.DomainA53)
		a53.Spec.EMPath = a72.Spec.EMPath
		for _, d := range []*platform.Domain{a72, a53} {
			if err := d.SetClockHz(800e6); err != nil {
				t.Fatal(err)
			}
			if err := d.SetSupplyVolts(0.9); err != nil {
				t.Fatal(err)
			}
			if err := d.SetPoweredCores(2); err != nil {
				t.Fatal(err)
			}
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
