package core

import (
	"reflect"
	"testing"

	"repro/internal/em"
	"repro/internal/platform"
	"repro/internal/slab"
)

// scalarSweepPointAt is the pre-batch reference implementation of one
// sweep point — the exact per-point pipeline the scalar sweep ran before
// it was rebased onto SweepBatch — kept here as the bit-identity baseline.
func scalarSweepPointAt(t *testing.T, b *Bench, d *platform.Domain, activeCores int, clockHz float64) *SweepPoint {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	probe, err := buildProbe(d)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := d.SnapClock(clockHz)
	if err != nil {
		t.Fatal(err)
	}
	l := platform.Load{Seq: probe, ActiveCores: activeCores}
	loopHz, _, err := d.LoopHzAt(l, b.Dt, b.N, clock)
	if err != nil {
		t.Fatal(err)
	}
	if loopHz <= 0 {
		t.Fatalf("probe loop frequency unresolved at %v Hz", clock)
	}
	if loopHz < b.Band.Lo || loopHz > b.Band.Hi {
		return nil
	}
	pe, err := d.PreparePointAt(l, b.Dt, b.N, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	freqs, iAmp, err := pe.SpectraArena(d.SupplyVolts(), d.PoweredCores(), &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	_, watts, err := em.CombinedSpectrum(b.Platform.Antenna, []em.Emitter{
		{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	binW := 1 / (float64(b.N) * b.Dt)
	half := b.Analyzer.RBWHz + 2*binW
	m, err := b.Analyzer.MeasurePeak(freqs, watts, loopHz-half, loopHz+half, b.Samples)
	if err != nil {
		t.Fatal(err)
	}
	return &SweepPoint{ClockHz: clock, LoopHz: loopHz, PeakDBm: m.PeakDBm}
}

// TestSweepBatchMatchesScalar is the whole-campaign pin: the batched sweep
// must reproduce the per-point reference pipeline point for point — same
// in-band set, same bits — at serial and wide parallelism. The scalar
// reference runs on a separate platform instance so the batch cannot be
// served by caches the reference warmed.
func TestSweepBatchMatchesScalar(t *testing.T) {
	refBench, refPlat := testBench(t)
	refDom := dom(t, refPlat, platform.DomainA72)
	steps := SweepClockSteps(refDom)
	want := make([]*SweepPoint, len(steps))
	for i, clock := range steps {
		want[i] = scalarSweepPointAt(t, refBench, refDom, 2, clock)
	}
	inBand := 0
	for _, pt := range want {
		if pt != nil {
			inBand++
		}
	}
	if inBand == 0 || inBand == len(want) {
		t.Fatalf("degenerate grid: %d/%d in band", inBand, len(want))
	}

	for _, workers := range []int{1, 8} {
		b, p := testBench(t)
		b.Parallelism = workers
		got, err := b.SweepBatch(dom(t, p, platform.DomainA72), 2, steps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batched sweep diverges from scalar reference", workers)
		}
	}
}

// TestSweepBatchEmptyAndSinglePoint: the degenerate shapes the fleet layer
// leans on — an empty grid and the one-clock SWEEP shard form.
func TestSweepBatchEmptyAndSinglePoint(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA72)
	pts, err := b.SweepBatch(d, 2, nil)
	if err != nil || len(pts) != 0 {
		t.Fatalf("empty grid: %v, %d points", err, len(pts))
	}
	steps := SweepClockSteps(d)
	whole, err := b.SweepBatch(d, 2, steps)
	if err != nil {
		t.Fatal(err)
	}
	for i, clock := range steps {
		pt, err := b.SweepBatch(d, 2, []float64{clock})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt[0], whole[i]) {
			t.Fatalf("single-point batch at %v diverges from whole-grid batch", clock)
		}
	}
}

// TestProbeMemoOneEntryPerView: the probe memo is keyed by domain view,
// and views are interned (platform.Domain.Gated), so sweeps and
// measurements alternating over every powered-core count — each resolving
// its view afresh, as the lab daemon does per request — leave at most one
// probe per powered-core count.
func TestProbeMemoOneEntryPerView(t *testing.T) {
	b, p := testBench(t)
	d := dom(t, p, platform.DomainA53)
	load := buildLoad(t, d, "probe", 1)
	clocks := SweepClockSteps(d)[:2]
	for rep := 0; rep < 2; rep++ {
		for n := 1; n <= d.Spec.TotalCores; n++ {
			view, err := d.Gated(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.SweepBatch(view, 1, clocks); err != nil {
				t.Fatal(err)
			}
			if _, err := b.EMMeasureN(view, load, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := b.batchSt()
	st.probeMu.Lock()
	defer st.probeMu.Unlock()
	if len(st.probes) != d.Spec.TotalCores {
		t.Fatalf("probe memo holds %d entries for %d powered-core counts", len(st.probes), d.Spec.TotalCores)
	}
}
