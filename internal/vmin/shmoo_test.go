package vmin

import (
	"testing"
)

// ShmooMonotone reports whether V_MIN is non-increasing as the clock drops
// (the physically expected shape: slower clocks tolerate lower voltage),
// allowing `slackV` of measurement jitter. The input must be ordered from
// the highest clock to the lowest.
func ShmooMonotone(points []ShmooPoint, slackV float64) bool {
	for i := 1; i < len(points); i++ {
		if points[i].VminV > points[i-1].VminV+slackV {
			return false
		}
	}
	return true
}

func TestShmooCurve(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 11)
	tst.ThresholdJitterV = 0
	l := load(t, d, "lbm", 2)
	clocks := []float64{1.2e9, 1.0e9, 0.8e9, 0.6e9}
	points, err := tst.Shmoo(l, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d shmoo points", len(points))
	}
	// V_MIN falls as the clock drops (more timing slack).
	if !ShmooMonotone(points, 0.011) {
		t.Fatalf("shmoo not monotone: %+v", points)
	}
	if points[0].VminV <= points[len(points)-1].VminV {
		t.Fatalf("no voltage headroom gained from downclocking: %+v", points)
	}
	// Clock restored.
	if d.ClockHz() != d.Spec.MaxClockHz {
		t.Fatalf("clock left at %v", d.ClockHz())
	}
}

func TestShmooErrors(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 12)
	l := load(t, d, "idle", 1)
	if _, err := tst.Shmoo(l, nil); err == nil {
		t.Error("empty clock list accepted")
	}
	if _, err := tst.Shmoo(l, []float64{9e9}); err == nil {
		t.Error("out-of-range clock accepted")
	}
}

func TestShmooMonotoneHelper(t *testing.T) {
	good := []ShmooPoint{{VminV: 0.9}, {VminV: 0.85}, {VminV: 0.85}, {VminV: 0.8}}
	if !ShmooMonotone(good, 0) {
		t.Error("monotone curve rejected")
	}
	bad := []ShmooPoint{{VminV: 0.8}, {VminV: 0.9}}
	if ShmooMonotone(bad, 0.05) {
		t.Error("rising curve accepted")
	}
	if !ShmooMonotone(bad, 0.2) {
		t.Error("slack not honoured")
	}
	if !ShmooMonotone(nil, 0) {
		t.Error("empty curve rejected")
	}
}
