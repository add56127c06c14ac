package platform

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/slab"
	"repro/internal/uarch"
)

func requireSameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestSpectraAtArenaMatchesSpectraAt pins the batched sweep's evaluation
// path: an arena-backed spectra computation of a point prepared from a
// campaign-primed trace must be bit-identical to SpectraAt at every clock.
func TestSpectraAtArenaMatchesSpectraAt(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	dt, n := 0.5e-9, 2048

	clocks := d.ClockSteps()
	var maxClock float64
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	tr := d.PrimeTraceAt(l, dt, n, maxClock)
	if tr == nil {
		t.Fatal("priming failed for a valid campaign")
	}

	supply, powered := d.SupplyVolts(), d.PoweredCores()
	var ar slab.Arena
	for _, clock := range clocks {
		ar.Reset()
		pe, err := d.PreparePointAt(l, dt, n, clock, tr)
		if err != nil {
			t.Fatalf("clock %v: prepare: %v", clock, err)
		}
		gotF, gotV, gotI, err := pe.SpectraArena(supply, powered, &ar)
		if err != nil {
			t.Fatalf("clock %v: arena spectra: %v", clock, err)
		}
		wantF, wantV, wantI, _, err := d.SpectraAt(l, dt, n, clock)
		if err != nil {
			t.Fatalf("clock %v: scalar spectra: %v", clock, err)
		}
		requireSameFloats(t, fmt.Sprintf("clock %v freqs", clock), gotF, wantF)
		requireSameFloats(t, fmt.Sprintf("clock %v vAmp", clock), gotV, wantV)
		requireSameFloats(t, fmt.Sprintf("clock %v iAmp", clock), gotI, wantI)
	}

}

// TestLadderMatchesSteadyResponseAt pins the V_MIN ladder: every supply
// step's (minV, droop) must match the scalar SteadyResponseAt pipeline bit
// for bit, the per-supply memo must be transparent, and the out-of-range
// error must be the scalar path's.
func TestLadderMatchesSteadyResponseAt(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	dt, n := 0.5e-9, 2048
	clock, err := d.SnapClock(0.9e9)
	if err != nil {
		t.Fatal(err)
	}

	var ar slab.Arena
	ld, err := d.LadderAt(l, dt, n, clock, nil, &ar)
	if err != nil {
		t.Fatal(err)
	}
	nominal := d.Spec.PDN.VNominal
	for _, supply := range []float64{nominal, nominal - 0.03, nominal - 0.11, nominal * 0.7} {
		minV, droop, err := ld.MinVDroop(supply)
		if err != nil {
			t.Fatalf("supply %v: %v", supply, err)
		}
		resp, _, err := d.SteadyResponseAt(l, dt, n, clock, supply)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(minV) != math.Float64bits(resp.MinVoltage()) {
			t.Fatalf("supply %v: minV %v != %v", supply, minV, resp.MinVoltage())
		}
		if math.Float64bits(droop) != math.Float64bits(resp.MaxDroop(supply)) {
			t.Fatalf("supply %v: droop %v != %v", supply, droop, resp.MaxDroop(supply))
		}
		// The memoized revisit must return the same bits.
		minV2, droop2, err := ld.MinVDroop(supply)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(minV2) != math.Float64bits(minV) || math.Float64bits(droop2) != math.Float64bits(droop) {
			t.Fatalf("supply %v: memoized revisit diverges", supply)
		}
	}

	_, _, gotErr := ld.MinVDroop(-0.1)
	_, _, wantErr := d.SteadyResponseAt(l, dt, n, clock, -0.1)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("out-of-range error mismatch: ladder %v, scalar %v", gotErr, wantErr)
	}

	// A ladder served from a primed trace must agree with the untraced one.
	tr := d.PrimeTraceAt(l, dt, n, clock)
	var ar2 slab.Arena
	ld2, err := d.LadderAt(l, dt, n, clock, tr, &ar2)
	if err != nil {
		t.Fatal(err)
	}
	a1, b1, err := ld.MinVDroop(nominal - 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := ld2.MinVDroop(nominal - 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a1) != math.Float64bits(a2) || math.Float64bits(b1) != math.Float64bits(b2) {
		t.Fatal("traced ladder diverges from untraced ladder")
	}
}

// TestPrimeTraceAtDegenerateInputs: priming is best-effort and must return
// nil (not panic) on inputs the per-point path will reject properly.
func TestPrimeTraceAtDegenerateInputs(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	if tr := d.PrimeTraceAt(Load{}, 0.5e-9, 1024, 1e9); tr != nil {
		t.Fatal("empty load primed")
	}
	if tr := d.PrimeTraceAt(l, 0, 1024, 1e9); tr != nil {
		t.Fatal("zero dt primed")
	}
	if tr := d.PrimeTraceAt(l, 0.5e-9, 0, 1e9); tr != nil {
		t.Fatal("zero n primed")
	}
	var nilTrace *uarch.Trace
	if nilTrace.Covers(10) {
		t.Fatal("nil trace claims coverage")
	}
}
