package platform

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/pdn"
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

// current is currentAt at the maximum clock, nominal supply and the
// domain's powered cores into a freshly allocated row.
func current(d *Domain, l Load, dt float64, n int) ([]float64, *uarch.Result, error) {
	wave := make([]float64, n)
	res, err := d.currentAt(l, dt, n, d.ClockHz(), d.SupplyVolts(), d.PoweredCores(), wave)
	return wave, res, err
}

// steadyRef is the steady-state reference every die-voltage path is pinned
// against, composed from the stage primitives on plain buffers: currentAt,
// then the transfer set and SteadyStateInto.
func steadyRef(t *testing.T, d *Domain, l Load, dt float64, n int, clock, supply float64, powered int) []float64 {
	t.Helper()
	wave := make([]float64, n)
	if _, err := d.currentAt(l, dt, n, clock, supply, powered, wave); err != nil {
		t.Fatal(err)
	}
	ts, err := d.transferSetAt(powered, n, dt)
	if err != nil {
		t.Fatal(err)
	}
	half := n/2 + 1
	vdie := make([]float64, n)
	if err := ts.SteadyStateInto(vdie, wave, supply, make([]complex128, half), make([]complex128, half),
		make([]complex128, dsp.RFFTScratchLen(n))); err != nil {
		t.Fatal(err)
	}
	return vdie
}

// spectraRef is the spectra reference: currentAt on a plain buffer, then
// the transfer set and SpectraInto.
func spectraRef(t *testing.T, d *Domain, l Load, dt float64, n int, clock, supply float64, powered int) (freqs, vAmp, iAmp []float64) {
	t.Helper()
	wave := make([]float64, n)
	if _, err := d.currentAt(l, dt, n, clock, supply, powered, wave); err != nil {
		t.Fatal(err)
	}
	ts, err := d.transferSetAt(powered, n, dt)
	if err != nil {
		t.Fatal(err)
	}
	half := n/2 + 1
	vAmp = make([]float64, half)
	iAmp = make([]float64, half)
	freqs, err = ts.SpectraInto(vAmp, iAmp, wave, make([]complex128, half), make([]complex128, dsp.RFFTScratchLen(n)))
	if err != nil {
		t.Fatal(err)
	}
	return freqs, vAmp, iAmp
}

// TestSpectraAtArenaMatchesSpectraAt pins the batched sweep's evaluation
// path: an arena-backed spectra computation of a point prepared from a
// campaign-primed trace must be bit-identical to the plain-buffer reference
// at every clock, and so must Domain.SpectraArena at the domain's own
// operating point.
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
		wantF, wantV, wantI := spectraRef(t, d, l, dt, n, clock, supply, powered)
		requireSameFloats(t, fmt.Sprintf("clock %v freqs", clock), gotF, wantF)
		requireSameFloats(t, fmt.Sprintf("clock %v vAmp", clock), gotV, wantV)
		requireSameFloats(t, fmt.Sprintf("clock %v iAmp", clock), gotI, wantI)
	}

	ar.Reset()
	gotF, gotV, gotI, _, err := d.SpectraArena(l, dt, n, &ar)
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantV, wantI := spectraRef(t, d, l, dt, n, d.ClockHz(), supply, powered)
	requireSameFloats(t, "domain freqs", gotF, wantF)
	requireSameFloats(t, "domain vAmp", gotV, wantV)
	requireSameFloats(t, "domain iAmp", gotI, wantI)
}

// TestLadderMatchesSteadyResponseAt pins the one die-voltage path against
// the plain-buffer reference: at nominal and three descending supplies, for
// an aligned load (one active core beside a powered idle one, so the idle
// lift is non-zero) and a phase-staggered one, every Ladder rung's whole
// VDie row must match bit for bit, as must SteadyVDie's row at the maximum
// clock and nominal supply, (minV, droop) must be the row's, the
// per-supply memo must be transparent, and an out-of-range supply must be
// rejected.
func TestLadderMatchesSteadyResponseAt(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	seq := probeLoop(t, d.Spec.Pool())
	dt, n := 0.5e-9, 2048
	clock, err := d.SnapClock(0.9e9)
	if err != nil {
		t.Fatal(err)
	}
	nominal := d.Spec.PDN.VNominal
	powered := d.PoweredCores()

	for _, l := range []Load{
		{Seq: seq, ActiveCores: 1},
		{Seq: seq, ActiveCores: 2, PhaseCycles: []float64{0, 37.5}},
	} {
		var ar, one slab.Arena
		ld, err := d.LadderAt(l, dt, n, clock, nil, &ar)
		if err != nil {
			t.Fatal(err)
		}
		for _, supply := range []float64{nominal, nominal - 0.03, nominal - 0.11, nominal * 0.7} {
			label := fmt.Sprintf("phases %v supply %v", l.PhaseCycles, supply)
			want := steadyRef(t, d, l, dt, n, clock, supply, powered)
			minV, droop, err := ld.MinVDroop(supply)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameFloats(t, label+" ladder VDie", ld.vdie, want)
			ref := pdn.Response{Dt: dt, VDie: want}
			if math.Float64bits(minV) != math.Float64bits(ref.MinVoltage()) ||
				math.Float64bits(droop) != math.Float64bits(ref.MaxDroop(supply)) {
				t.Fatalf("%s: (minV, droop) (%v, %v) != (%v, %v)", label, minV, droop, ref.MinVoltage(), ref.MaxDroop(supply))
			}
			// The memoized revisit must return the same bits.
			minV2, droop2, err := ld.MinVDroop(supply)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(minV2) != math.Float64bits(minV) || math.Float64bits(droop2) != math.Float64bits(droop) {
				t.Fatalf("%s: memoized revisit diverges", label)
			}
		}

		// SteadyVDie is one rung at the maximum clock and nominal supply.
		one.Reset()
		resp, res, err := d.SteadyVDie(l, dt, n, &one)
		if err != nil {
			t.Fatalf("phases %v: SteadyVDie: %v", l.PhaseCycles, err)
		}
		if res == nil || resp.Dt != dt || resp.IDie != nil {
			t.Fatalf("phases %v: SteadyVDie response %+v / result %v", l.PhaseCycles, resp, res)
		}
		requireSameFloats(t, fmt.Sprintf("phases %v SteadyVDie", l.PhaseCycles), resp.VDie,
			steadyRef(t, d, l, dt, n, d.ClockHz(), nominal, powered))

		_, _, gotErr := ld.MinVDroop(-0.1)
		wantErr := fmt.Sprintf("platform: %s: supply -0.1 out of range", d.Spec.Name)
		if gotErr == nil || gotErr.Error() != wantErr {
			t.Fatalf("out-of-range error %v, want %q", gotErr, wantErr)
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

// BenchmarkLadderRung times one V_MIN ladder rung on the default analysis
// grid: rescale the base waveform, then one RFFT and one IRFFT. The
// per-supply memo is cleared so every iteration solves.
func BenchmarkLadderRung(b *testing.B) {
	p, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	l := Load{Seq: probeLoop(b, d.Spec.Pool()), ActiveCores: 2}
	clock, err := d.SnapClock(0.9e9)
	if err != nil {
		b.Fatal(err)
	}
	var ar slab.Arena
	ld, err := d.LadderAt(l, 0.25e-9, 8192, clock, nil, &ar)
	if err != nil {
		b.Fatal(err)
	}
	supply := d.Spec.PDN.VNominal - 0.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(ld.memo)
		if _, _, err := ld.MinVDroop(supply); err != nil {
			b.Fatal(err)
		}
	}
}
