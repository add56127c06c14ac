package pdn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/dsp"
)

// testParams is an A72-like PDN used throughout the package tests.
func testParams() Params {
	return Params{
		Name:       "test-a72",
		VNominal:   1.0,
		CDieCore:   12e-9,
		CDieUncore: 7.3e-9,
		RDie:       0.020,
		LPkg:       180e-12,
		RPkgTrace:  0.4e-3,
		CPkg:       1e-6,
		ESRPkg:     10e-3,
		ESLPkg:     50e-12,
		LPcb:       2e-9,
		RPcbTrace:  1e-3,
		CPcb:       300e-6,
		ESRPcb:     2e-3,
		ESLPcb:     1e-9,
		LVrm:       20e-9,
		RVrm:       0.5e-3,
	}
}

func newTestModel(t *testing.T, cores int) *Model {
	t.Helper()
	m, err := NewModel(testParams(), cores)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestValidateRejectsEachField(t *testing.T) {
	base := testParams()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.VNominal = 0 },
		func(p *Params) { p.CDieCore = -1 },
		func(p *Params) { p.CDieUncore = math.NaN() },
		func(p *Params) { p.RDie = 0 },
		func(p *Params) { p.LPkg = math.Inf(1) },
		func(p *Params) { p.RPkgTrace = 0 },
		func(p *Params) { p.CPkg = 0 },
		func(p *Params) { p.ESRPkg = 0 },
		func(p *Params) { p.ESLPkg = 0 },
		func(p *Params) { p.LPcb = 0 },
		func(p *Params) { p.RPcbTrace = 0 },
		func(p *Params) { p.CPcb = 0 },
		func(p *Params) { p.ESRPcb = 0 },
		func(p *Params) { p.ESLPcb = 0 },
		func(p *Params) { p.LVrm = 0 },
		func(p *Params) { p.RVrm = 0 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestNewModelRejectsBadCores(t *testing.T) {
	if _, err := NewModel(testParams(), 0); err == nil {
		t.Fatal("0 cores accepted")
	}
	if _, err := NewModel(Params{}, 1); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestCDieScalesWithCores(t *testing.T) {
	p := testParams()
	m1 := newTestModel(t, 1)
	m2 := newTestModel(t, 2)
	if got, want := m1.CDie(), p.CDieCore+p.CDieUncore; math.Abs(got-want) > 1e-18 {
		t.Fatalf("CDie(1) = %v, want %v", got, want)
	}
	if got, want := m2.CDie(), 2*p.CDieCore+p.CDieUncore; math.Abs(got-want) > 1e-18 {
		t.Fatalf("CDie(2) = %v, want %v", got, want)
	}
}

func TestFirstOrderResonanceRisesWithPowerGating(t *testing.T) {
	m1 := newTestModel(t, 1)
	m2 := newTestModel(t, 2)
	f1, f2 := m1.FirstOrderResonance(), m2.FirstOrderResonance()
	if f1 <= f2 {
		t.Fatalf("power-gating did not raise resonance: f(1 core)=%v <= f(2 cores)=%v", f1, f2)
	}
	// The calibration targets the A72: ~67 MHz dual-core, ~85 MHz single.
	if f2 < 60e6 || f2 > 75e6 {
		t.Errorf("dual-core resonance %v Hz outside 60-75 MHz", f2)
	}
	if f1 < 78e6 || f1 > 92e6 {
		t.Errorf("single-core resonance %v Hz outside 78-92 MHz", f1)
	}
}

func TestImpedanceProfileShowsThreePeaks(t *testing.T) {
	m := newTestModel(t, 2)
	peaks, err := m.ResonancePeaks(1e3, 1e9, 600)
	if err != nil {
		t.Fatalf("ResonancePeaks: %v", err)
	}
	if len(peaks) < 3 {
		t.Fatalf("found %d impedance peaks, want >= 3: %+v", len(peaks), peaks)
	}
	// The strongest peak must be the first-order (highest-frequency) one.
	top := peaks[0]
	if top.Freq < 50e6 || top.Freq > 200e6 {
		t.Fatalf("strongest peak at %v Hz, want in 50-200 MHz (first-order)", top.Freq)
	}
	// Expect lower-frequency tanks at ~1-10 MHz and ~10-100 kHz.
	var has2nd, has3rd bool
	for _, p := range peaks[1:] {
		if p.Freq > 1e6 && p.Freq < 10e6 {
			has2nd = true
		}
		if p.Freq > 1e4 && p.Freq < 1e6 {
			has3rd = true
		}
	}
	if !has2nd || !has3rd {
		t.Fatalf("missing 2nd/3rd order peaks: %+v", peaks)
	}
}

func TestResonancePeakMatchesAnalyticEstimate(t *testing.T) {
	m := newTestModel(t, 2)
	f, z, err := m.ResonancePeak(30e6, 200e6)
	if err != nil {
		t.Fatalf("ResonancePeak: %v", err)
	}
	analytic := m.FirstOrderResonance()
	if math.Abs(f-analytic) > 0.15*analytic {
		t.Fatalf("peak %v Hz vs analytic %v Hz", f, analytic)
	}
	if z <= 0 {
		t.Fatalf("peak impedance %v", z)
	}
}

func TestImpedanceProfileErrors(t *testing.T) {
	m := newTestModel(t, 2)
	if _, err := m.ImpedanceProfile(0, 1e6, 10); err == nil {
		t.Error("fLo=0 accepted")
	}
	if _, err := m.ImpedanceProfile(1e6, 1e3, 10); err == nil {
		t.Error("fHi<fLo accepted")
	}
	if _, err := m.ImpedanceProfile(1e3, 1e6, 1); err == nil {
		t.Error("points=1 accepted")
	}
}

func TestStepResponseRingsAndSettles(t *testing.T) {
	m := newTestModel(t, 2)
	dt := 0.25e-9
	resp, err := m.StepResponse(1.0, dt, 8000) // 2 us
	if err != nil {
		t.Fatalf("StepResponse: %v", err)
	}
	vnom := m.Params.VNominal
	if resp.VDie[0] != vnom {
		t.Fatalf("initial die voltage %v, want %v (quiescent)", resp.VDie[0], vnom)
	}
	droop := resp.MaxDroop(vnom)
	if droop <= 0 {
		t.Fatal("step produced no droop")
	}
	// First-order ringing: the minimum should occur within ~1.5 resonance
	// periods of the step.
	f0 := m.FirstOrderResonance()
	minIdx := 0
	for i, v := range resp.VDie {
		if v < resp.VDie[minIdx] {
			minIdx = i
		}
	}
	if tMin := float64(minIdx) * dt; tMin > 1.5/f0 {
		t.Errorf("worst droop at %v s, want within %v s", tMin, 1.5/f0)
	}
	if resp.MinVoltage() >= vnom {
		t.Error("MinVoltage not below nominal")
	}
	if resp.PeakToPeak() <= 0 {
		t.Error("PeakToPeak not positive")
	}
}

func TestResponseMetrics(t *testing.T) {
	r := &Response{Dt: 1, VDie: []float64{1.0, 0.9, 1.05}, IDie: []float64{0, 0, 0}}
	if d := r.MaxDroop(1.0); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("MaxDroop = %v", d)
	}
	if p := r.PeakToPeak(); math.Abs(p-0.15) > 1e-12 {
		t.Fatalf("PeakToPeak = %v", p)
	}
	if v := r.MinVoltage(); v != 0.9 {
		t.Fatalf("MinVoltage = %v", v)
	}
}

func TestTransfersValidation(t *testing.T) {
	m := newTestModel(t, 2)
	if _, err := m.Transfers(0, 1e-9); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := m.Transfers(16, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	ts, err := m.Transfers(64, 1e-9)
	if err != nil {
		t.Fatalf("Transfers: %v", err)
	}
	if len(ts.HV) != 33 || len(ts.HI) != 33 {
		t.Fatalf("transfer lengths %d/%d, want 33", len(ts.HV), len(ts.HI))
	}
	if ts.RSeries() <= 0 {
		t.Fatalf("RSeries = %v", ts.RSeries())
	}
	if _, err := steadyVDie(ts, make([]float64, 10), m.Params.VNominal); err == nil {
		t.Error("wrong-length load accepted by SteadyStateInto")
	}
	if _, _, _, err := spectra(ts, make([]float64, 10)); err == nil {
		t.Error("wrong-length load accepted by SpectraInto")
	}
}

// steadyVDie runs SteadyStateInto on freshly allocated rows sized for ts
// (the load must still have ts.N samples) and returns the die voltage.
func steadyVDie(ts *TransferSet, load []float64, vnominal float64) ([]float64, error) {
	half := ts.N/2 + 1
	vdie := make([]float64, ts.N)
	err := ts.SteadyStateInto(vdie, load, vnominal,
		make([]complex128, half), make([]complex128, half), make([]complex128, dsp.RFFTScratchLen(ts.N)))
	return vdie, err
}

// spectra runs SpectraInto on freshly allocated rows sized for ts.
func spectra(ts *TransferSet, load []float64) (freqs, vAmp, iAmp []float64, err error) {
	half := ts.N/2 + 1
	vAmp = make([]float64, half)
	iAmp = make([]float64, half)
	freqs, err = ts.SpectraInto(vAmp, iAmp, load,
		make([]complex128, half), make([]complex128, dsp.RFFTScratchLen(ts.N)))
	return freqs, vAmp, iAmp, err
}

func TestSteadyStateDCLoad(t *testing.T) {
	// A constant load should produce a pure IR drop.
	m := newTestModel(t, 2)
	const n = 256
	dt := 1e-9
	ts, err := m.Transfers(n, dt)
	if err != nil {
		t.Fatalf("Transfers: %v", err)
	}
	load := make([]float64, n)
	for i := range load {
		load[i] = 2.0
	}
	vdie, err := steadyVDie(ts, load, m.Params.VNominal)
	if err != nil {
		t.Fatalf("SteadyStateInto: %v", err)
	}
	wantV := m.Params.VNominal - 2.0*ts.RSeries()
	for i, v := range vdie {
		if math.Abs(v-wantV) > 1e-9 {
			t.Fatalf("VDie[%d] = %v, want %v", i, v, wantV)
		}
	}
}

func TestSpectraPureSineLoad(t *testing.T) {
	m := newTestModel(t, 2)
	const n = 1024
	dt := 1e-9
	fs := 1 / dt
	ts, err := m.Transfers(n, dt)
	if err != nil {
		t.Fatalf("Transfers: %v", err)
	}
	// Put the tone exactly on bin 70 (~68.4 MHz).
	k := 70
	f := float64(k) * fs / n
	const amp = 0.5
	load := make([]float64, n)
	for i := range load {
		load[i] = 1.0 + amp*math.Sin(2*math.Pi*f*float64(i)*dt)
	}
	freqs, vAmp, iAmp, err := spectra(ts, load)
	if err != nil {
		t.Fatalf("SpectraInto: %v", err)
	}
	if math.Abs(freqs[k]-f) > 1 {
		t.Fatalf("bin freq %v, want %v", freqs[k], f)
	}
	z, err := m.Impedance(f)
	if err != nil {
		t.Fatalf("Impedance: %v", err)
	}
	wantV := amp * cmodAbs(z)
	if math.Abs(vAmp[k]-wantV) > 1e-6*(1+wantV) {
		t.Fatalf("vAmp = %v, want %v", vAmp[k], wantV)
	}
	if iAmp[k] <= 0 {
		t.Fatal("iAmp at tone is zero")
	}
	// Other AC bins are empty for a pure tone.
	for i := 1; i < len(vAmp); i++ {
		if i == k {
			continue
		}
		if vAmp[i] > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", i, vAmp[i])
		}
	}
}

func cmodAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// Property: periodic steady state from TransferSet matches the tail of a
// long transient for random square-wave loads near resonance.
func TestSteadyStateMatchesTransientProperty(t *testing.T) {
	m := newTestModel(t, 2)
	f0 := m.FirstOrderResonance()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := f0 * (0.7 + 0.6*rng.Float64())
		amp := 0.2 + 0.8*rng.Float64()
		period := 1 / f
		dt := period / 64
		n := 4096
		load := make([]float64, n)
		wave := func(tm float64) float64 {
			if math.Mod(tm, period) < period/2 {
				return amp
			}
			return 0
		}
		for i := range load {
			load[i] = wave(float64(i) * dt)
		}
		ts, err := m.Transfers(n, dt)
		if err != nil {
			return false
		}
		vdie, err := steadyVDie(ts, load, m.Params.VNominal)
		if err != nil {
			return false
		}
		// The square wave does not tile the FFT window exactly, so compare
		// only the coarse peak-to-peak over matching windows.
		tr, err := m.Transient(wave, dt, 3*n)
		if err != nil {
			return false
		}
		tail := tr.VDie[len(tr.VDie)-n:]
		ptpTr := ptp(tail)
		ptpSS := ptp(vdie[n/4 : 3*n/4])
		return math.Abs(ptpTr-ptpSS) < 0.15*ptpTr+1e-6
	}
	cfg := &quick.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func ptp(x []float64) float64 {
	min, max := x[0], x[0]
	for _, v := range x {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

func TestTransientUsesLoadWaveform(t *testing.T) {
	m := newTestModel(t, 2)
	resp, err := m.Transient(circuit.DC(1.0), 1e-9, 100)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	// DC 1A load from the operating point: flat at Vnom - IR.
	last := resp.VDie[len(resp.VDie)-1]
	if last >= m.Params.VNominal {
		t.Fatalf("no IR drop under DC load: %v", last)
	}
	first := resp.VDie[0]
	if math.Abs(first-last) > 1e-6 {
		t.Fatalf("DC load not quiescent from OP: %v vs %v", first, last)
	}
}

// TestSteadyStateIntoBitIdentical: the slab-row steady-state solver must
// reproduce the textbook composition — allocating RFFT, per-bin product
// with HV, allocating IRFFT, DC lift — bit for bit at several lengths and
// supplies, with stale values in every row it is handed, since the V_MIN
// ladder's per-supply remainder is exactly this call on reused rows.
func TestSteadyStateIntoBitIdentical(t *testing.T) {
	m := newTestModel(t, 2)
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{256, 1000, 1024} {
		dt := 0.5e-9
		ts, err := m.Transfers(n, dt)
		if err != nil {
			t.Fatal(err)
		}
		load := make([]float64, n)
		for i := range load {
			load[i] = math.Abs(rng.NormFloat64())
		}
		for _, supply := range []float64{1.0, 0.91, 0.785} {
			spec := dsp.RFFT(load)
			for k := range spec {
				spec[k] *= ts.HV[k]
			}
			want := dsp.IRFFT(spec, n)
			for i := range want {
				want[i] = supply + want[i]
			}
			half := n/2 + 1
			vdie := nanFloats(n)
			if err := ts.SteadyStateInto(vdie, load, supply, nanComplexes(half), nanComplexes(half),
				nanComplexes(dsp.RFFTScratchLen(n))); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(vdie[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d supply=%v: VDie[%d] %v != %v", n, supply, i, vdie[i], want[i])
				}
			}
		}
	}
}

func nanFloats(n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

func nanComplexes(n int) []complex128 {
	row := make([]complex128, n)
	for i := range row {
		row[i] = complex(math.NaN(), math.NaN())
	}
	return row
}

// TestSteadyStateIntoValidation: every mis-sized row is rejected before any
// write.
func TestSteadyStateIntoValidation(t *testing.T) {
	m := newTestModel(t, 2)
	n := 256
	ts, err := m.Transfers(n, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, n)
	half := n/2 + 1
	vdie := make([]float64, n)
	spec, prod := make([]complex128, half), make([]complex128, half)
	scratch := make([]complex128, dsp.RFFTScratchLen(n))
	if err := ts.SteadyStateInto(vdie, load[:n-1], 1.0, spec, prod, scratch); err == nil {
		t.Fatal("short load accepted")
	}
	if err := ts.SteadyStateInto(vdie[:n-1], load, 1.0, spec, prod, scratch); err == nil {
		t.Fatal("short vdie accepted")
	}
	if err := ts.SteadyStateInto(vdie, load, 1.0, spec[:half-1], prod, scratch); err == nil {
		t.Fatal("short spec accepted")
	}
	if err := ts.SteadyStateInto(vdie, load, 1.0, spec, prod, scratch[:0]); err == nil {
		t.Fatal("short scratch accepted")
	}
}

// BenchmarkTransfers8192 times one transfer set on the analysis grid the
// benches use (8192 samples at 4 GS/s): 4097 AC solves.
func BenchmarkTransfers8192(b *testing.B) {
	m, err := NewModel(testParams(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transfers(8192, 0.25e-9); err != nil {
			b.Fatal(err)
		}
	}
}
