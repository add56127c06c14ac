package em

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAntennaValidate(t *testing.T) {
	if err := DefaultLoopAntenna().Validate(); err != nil {
		t.Fatalf("default antenna invalid: %v", err)
	}
	bad := DefaultLoopAntenna()
	bad.Q = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Q=0 accepted")
	}
}

func TestAntennaGainFlatInBandPeakAtResonance(t *testing.T) {
	a := DefaultLoopAntenna()
	// 50-200 MHz: response within a few percent of unity (paper: flat to
	// 1.2 GHz).
	for _, f := range []float64{50e6, 100e6, 200e6, 500e6} {
		g := a.Gain(f)
		if math.Abs(g-1) > 0.1 {
			t.Errorf("Gain(%v) = %v, want ~1", f, g)
		}
	}
	gRes := a.Gain(a.SelfResonanceHz)
	if gRes < 10*a.Gain(100e6) {
		t.Errorf("no resonance peak: Gain(fr) = %v", gRes)
	}
	if a.Gain(0) != 0 {
		t.Error("Gain(0) != 0")
	}
	// Roll-off above resonance.
	if a.Gain(3*a.SelfResonanceHz) >= 1 {
		t.Error("no roll-off above resonance")
	}
}

func TestAntennaS11Shape(t *testing.T) {
	a := DefaultLoopAntenna()
	low := a.S11(10e6)
	inBand := a.S11(100e6)
	dip := a.S11(a.SelfResonanceHz)
	if low < 0.9 {
		t.Errorf("S11 at 10 MHz = %v, want near 1 (mismatched small loop)", low)
	}
	if inBand < 0.9 {
		t.Errorf("S11 at 100 MHz = %v, want near 1", inBand)
	}
	// Deep dip at self-resonance: |S11| = |R-Z0|/(R+Z0) = 20/80 = 0.25.
	if math.Abs(dip-0.25) > 1e-9 {
		t.Errorf("S11 at resonance = %v, want 0.25", dip)
	}
	if a.S11(0) != 1 {
		t.Error("S11(0) != 1")
	}
}

func TestPathValidate(t *testing.T) {
	if err := DefaultPath().Validate(); err != nil {
		t.Fatalf("default path invalid: %v", err)
	}
	bad := DefaultPath()
	bad.DistanceM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero distance accepted")
	}
}

func TestReceivedPowerQuadraticInCurrent(t *testing.T) {
	p := DefaultPath()
	a := DefaultLoopAntenna()
	p1 := p.ReceivedPower(a, 70e6, 0.5)
	p2 := p.ReceivedPower(a, 70e6, 1.0)
	if math.Abs(p2/p1-4) > 1e-9 {
		t.Fatalf("doubling current gave power ratio %v, want 4", p2/p1)
	}
}

func TestReceivedPowerQuadraticInFrequency(t *testing.T) {
	p := DefaultPath()
	a := DefaultLoopAntenna()
	// In the flat antenna band, power scales ~f^2.
	p1 := p.ReceivedPower(a, 50e6, 1)
	p2 := p.ReceivedPower(a, 100e6, 1)
	ratio := p2 / p1
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("frequency doubling power ratio %v, want ~4", ratio)
	}
}

func TestReceivedPowerDistanceRollOff(t *testing.T) {
	near := DefaultPath()
	far := DefaultPath()
	far.DistanceM = 2 * near.DistanceM
	a := DefaultLoopAntenna()
	pNear := near.ReceivedPower(a, 70e6, 1)
	pFar := far.ReceivedPower(a, 70e6, 1)
	if pFar >= pNear {
		t.Fatal("no distance roll-off")
	}
	if ratio := pNear / pFar; math.Abs(ratio-64) > 1 {
		t.Fatalf("distance ratio %v, want 64 (1/d^6 power)", ratio)
	}
}

func TestReceivedPowerEdgeCases(t *testing.T) {
	p := DefaultPath()
	a := DefaultLoopAntenna()
	if p.ReceivedPower(a, 0, 1) != 0 {
		t.Error("nonzero power at f=0")
	}
	if p.ReceivedPower(a, 1e8, 0) != 0 {
		t.Error("nonzero power at zero current")
	}
}

func TestReceivedSpectrum(t *testing.T) {
	p := DefaultPath()
	a := DefaultLoopAntenna()
	freqs := []float64{50e6, 70e6, 90e6}
	amps := []float64{0.1, 0.5, 0.2}
	spec, err := p.ReceivedSpectrum(a, freqs, amps)
	if err != nil {
		t.Fatalf("ReceivedSpectrum: %v", err)
	}
	if len(spec) != 3 {
		t.Fatalf("spectrum length %d", len(spec))
	}
	// Strongest current bin dominates.
	if !(spec[1] > spec[0] && spec[1] > spec[2]) {
		t.Fatalf("expected bin 1 dominant: %v", spec)
	}
	if _, err := p.ReceivedSpectrum(a, freqs, amps[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := p
	bad.CouplingK = 0
	if _, err := bad.ReceivedSpectrum(a, freqs, amps); err == nil {
		t.Error("invalid path accepted")
	}
	badAnt := a
	badAnt.FeedOhms = -1
	if _, err := p.ReceivedSpectrum(badAnt, freqs, amps); err == nil {
		t.Error("invalid antenna accepted")
	}
}

func TestCombinedSpectrumAddsEmitters(t *testing.T) {
	a := DefaultLoopAntenna()
	freqs := []float64{60e6, 70e6, 80e6}
	e1 := Emitter{Freqs: freqs, IAmp: []float64{0, 0.5, 0}, Path: DefaultPath()}
	e2 := Emitter{Freqs: freqs, IAmp: []float64{0.3, 0, 0}, Path: DefaultPath()}
	got, watts, err := CombinedSpectrum(a, []Emitter{e1, e2})
	if err != nil {
		t.Fatalf("CombinedSpectrum: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("freqs %v", got)
	}
	if watts[0] <= 0 || watts[1] <= 0 {
		t.Fatalf("missing emitter contributions: %v", watts)
	}
	if watts[2] != 0 {
		t.Fatalf("phantom power: %v", watts)
	}
	// Both signatures visible simultaneously (Fig. 15 behaviour).
	single1, _ := e1.Path.ReceivedSpectrum(a, freqs, e1.IAmp)
	if math.Abs(watts[1]-single1[1]) > 1e-18 {
		t.Fatal("emitter 1 signature distorted by emitter 2")
	}
}

func TestCombinedSpectrumErrors(t *testing.T) {
	a := DefaultLoopAntenna()
	if _, _, err := CombinedSpectrum(a, nil); err == nil {
		t.Error("no emitters accepted")
	}
	e1 := Emitter{Freqs: []float64{1e6}, IAmp: []float64{1}, Path: DefaultPath()}
	e2 := Emitter{Freqs: []float64{1e6, 2e6}, IAmp: []float64{1, 1}, Path: DefaultPath()}
	if _, _, err := CombinedSpectrum(a, []Emitter{e1, e2}); err == nil {
		t.Error("mismatched grids accepted")
	}
	e3 := Emitter{Freqs: []float64{2e6}, IAmp: []float64{1}, Path: DefaultPath()}
	if _, _, err := CombinedSpectrum(a, []Emitter{e1, e3}); err == nil {
		t.Error("different bin frequencies accepted")
	}
}

// Property: received power is monotone in current amplitude at any fixed
// frequency in the band.
func TestPowerMonotoneProperty(t *testing.T) {
	p := DefaultPath()
	a := DefaultLoopAntenna()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := 50e6 + 150e6*rng.Float64()
		i1 := rng.Float64()
		i2 := i1 + rng.Float64() + 1e-6
		return p.ReceivedPower(a, f, i2) > p.ReceivedPower(a, f, i1)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func syncMapLen(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestPathCoeffsReleaseFreedGrids: the coefficient memo must not pin the
// grids it is keyed by. Tables for 200 throwaway grids must drain from it
// once the grids are garbage.
func TestPathCoeffsReleaseFreedGrids(t *testing.T) {
	const grids = 200
	before := syncMapLen(&pathCoeffs)
	ant, p := DefaultLoopAntenna(), DefaultPath()
	for i := 0; i < grids; i++ {
		grid := make([]float64, 64)
		for j := range grid {
			grid[j] = float64(j+1) * 1e6
		}
		coeffsFor(ant, p, grid)
	}
	if got := syncMapLen(&pathCoeffs); got < before+grids {
		t.Fatalf("memo holds %d tables after %d fresh grids, want at least %d", got, grids, before+grids)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		if got := syncMapLen(&pathCoeffs); got <= before+grids/2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("memo still holds %d tables after the grids were freed (had %d before)", syncMapLen(&pathCoeffs), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// staticFreqs lives outside the heap: the linker lays out a package-level
// composite literal.
var staticFreqs = []float64{50e6, 60e6, 70e6}

// TestCombineIntoStaticGrid: a grid in a package-level variable goes
// through the coefficient memo like any other and folds the same power as
// ReceivedPower.
func TestCombineIntoStaticGrid(t *testing.T) {
	ant, p := DefaultLoopAntenna(), DefaultPath()
	iAmp := []float64{0.1, 0.2, 0.3}
	for i := 0; i < 2; i++ {
		dst := make([]float64, len(staticFreqs))
		if _, err := CombineInto(dst, ant, []Emitter{{Freqs: staticFreqs, IAmp: iAmp, Path: p}}); err != nil {
			t.Fatal(err)
		}
		for j, f := range staticFreqs {
			if want := p.ReceivedPower(ant, f, iAmp[j]); math.Float64bits(dst[j]) != math.Float64bits(want) {
				t.Fatalf("call %d bin %d: %v, want %v", i, j, dst[j], want)
			}
		}
	}
}
