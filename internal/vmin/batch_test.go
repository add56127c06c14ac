package vmin

import (
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/slab"
)

// freshSearch is the per-trial reference the campaign paths are pinned
// against: one descent on its own unprimed ladder in a fresh arena, so no
// ladder memo, primed trace or recycled arena row is shared with anything.
func freshSearch(tst *Tester, l platform.Load, clock float64, trial int) (*Result, error) {
	return tst.searchLadder(l, clock, trial, nil, &slab.Arena{})
}

// TestBatchedSearchMatchesScalar pins Search (pooled arena) against a
// fresh per-trial column: same trials, same V_MIN, bit for bit.
func TestBatchedSearchMatchesScalar(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 5)
	l := load(t, d, "lbm", 2)
	want, err := freshSearch(tst, l, d.ClockHz(), 0)
	if err != nil {
		t.Fatalf("fresh search: %v", err)
	}
	got, err := tst.Search(l)
	if err != nil {
		t.Fatalf("batched search: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched search diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestRepeatMatchesScalarRepeats: n ladder-shared descents must reproduce
// n independent fresh-column searches — the shared supply memo may change
// cost, never values.
func TestRepeatMatchesScalarRepeats(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 6)
	l := load(t, d, "povray", 2)
	clock := d.ClockHz()

	const n = 5
	var wantAll []float64
	var wantWorst *Result
	for i := 0; i < n; i++ {
		r, err := freshSearch(tst, l, clock, i)
		if err != nil {
			t.Fatal(err)
		}
		wantAll = append(wantAll, r.VminV)
		if wantWorst == nil || r.VminV > wantWorst.VminV {
			wantWorst = r
		}
	}
	worst, all, err := tst.Repeat(l, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, wantAll) {
		t.Fatalf("per-run V_MIN diverges: got %v want %v", all, wantAll)
	}
	if !reflect.DeepEqual(worst, wantWorst) {
		t.Fatalf("worst result diverges:\n got %+v\nwant %+v", worst, wantWorst)
	}
}

// TestShmooMatchesScalarAtAnyParallelism is the whole-campaign pin: the
// batched shmoo — primed trace, snapped-clock dedup, per-worker ladders —
// must reproduce fresh per-clock searches at every parallelism setting.
func TestShmooMatchesScalarAtAnyParallelism(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 7)
	l := load(t, d, "lbm", 2)
	clocks := []float64{1.2e9, 1.0e9, 0.8e9, 0.6e9}

	want := make([]ShmooPoint, len(clocks))
	for i, clock := range clocks {
		snapped, err := d.SnapClock(clock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := freshSearch(tst, l, snapped, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ShmooPoint{ClockHz: snapped, VminV: res.VminV, MarginV: res.MarginV, Outcome: res.Outcome}
	}
	for _, workers := range []int{1, 8} {
		tst.Parallelism = workers
		got, err := tst.Shmoo(l, clocks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: shmoo diverges:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestShmooDedupsSnappedClocks: a grid denser than the DVFS lattice snaps
// neighbouring requests onto the same step; each distinct column must run
// once and fan out identical points to every requester.
func TestShmooDedupsSnappedClocks(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 8)
	l := load(t, d, "lbm", 2)

	// Three requests that snap to one step plus one distinct step.
	base := 1.0e9
	s0, err := d.SnapClock(base)
	if err != nil {
		t.Fatal(err)
	}
	clocks := []float64{base, s0, base, 0.6e9}
	points, err := tst.Shmoo(l, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if points[0] != points[1] || points[0] != points[2] {
		t.Fatalf("requests snapping to one step diverged: %+v", points[:3])
	}
	if points[3] == points[0] {
		t.Fatalf("distinct steps collapsed: %+v", points)
	}
	// And the fanned-out points are still the fresh-column values.
	res, err := freshSearch(tst, l, s0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantP := ShmooPoint{ClockHz: s0, VminV: res.VminV, MarginV: res.MarginV, Outcome: res.Outcome}
	if points[0] != wantP {
		t.Fatalf("deduped point diverges from a fresh column: got %+v want %+v", points[0], wantP)
	}
}
