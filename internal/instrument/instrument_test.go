package instrument

import (
	"math"
	"testing"

	"repro/internal/detrand"
	"repro/internal/dsp"
	"repro/internal/pdn"
)

func a72Model(t *testing.T, cores int) *pdn.Model {
	t.Helper()
	p := pdn.Params{
		Name: "test-a72", VNominal: 1.0,
		CDieCore: 12e-9, CDieUncore: 7.3e-9, RDie: 0.020,
		LPkg: 138e-12, RPkgTrace: 0.4e-3,
		CPkg: 1e-6, ESRPkg: 10e-3, ESLPkg: 50e-12,
		LPcb: 2e-9, RPcbTrace: 1e-3,
		CPcb: 300e-6, ESRPcb: 2e-3, ESLPcb: 1e-9,
		LVrm: 20e-9, RVrm: 0.5e-3,
	}
	m, err := pdn.NewModel(p, cores)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewSpectrumAnalyzerValidation(t *testing.T) {
	if _, err := NewSpectrumAnalyzer("x", 100, 50, 1, 1); err == nil {
		t.Error("stop<start accepted")
	}
	if _, err := NewSpectrumAnalyzer("x", 0, 100, 0, 1); err == nil {
		t.Error("rbw=0 accepted")
	}
	if _, err := NewSpectrumAnalyzer("x", -5, 100, 1, 1); err == nil {
		t.Error("negative start accepted")
	}
}

func TestCaptureFindsTone(t *testing.T) {
	sa, err := NewSpectrumAnalyzer("e4402b", 9e3, 1.5e9, 1e6, 42)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{50e6, 67e6, 90e6}
	watts := []float64{0, 1e-6, 0} // -30 dBm at 67 MHz
	sweep, err := sa.Capture(freqs, watts)
	if err != nil {
		t.Fatal(err)
	}
	f, dbm, _ := sweep.PeakInBand(math.Inf(-1), math.Inf(1))
	if math.Abs(f-67e6) > sa.RBWHz {
		t.Fatalf("peak at %v, want ~67 MHz", f)
	}
	if math.Abs(dbm-(-30)) > 3 {
		t.Fatalf("peak %v dBm, want ~-30", dbm)
	}
	if _, err := sa.Capture(freqs, watts[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCaptureNoiseFloor(t *testing.T) {
	sa, _ := NewSpectrumAnalyzer("x", 1e6, 100e6, 1e6, 7)
	sweep, err := sa.Capture(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dbm := range sweep.DBm {
		if dbm > sa.NoiseFloorDBm+10 || dbm < sa.NoiseFloorDBm-20 {
			t.Fatalf("noise floor bin at %v dBm", dbm)
		}
	}
}

func TestPeakInBand(t *testing.T) {
	s := &Sweep{Freqs: []float64{10, 20, 30}, DBm: []float64{-10, -50, -5}}
	f, dbm, ok := s.PeakInBand(15, 25)
	if !ok || f != 20 || dbm != -50 {
		t.Fatalf("PeakInBand = %v %v %v", f, dbm, ok)
	}
	if _, _, ok := s.PeakInBand(100, 200); ok {
		t.Error("out-of-span band returned a peak")
	}
	empty := &Sweep{}
	if _, dbm, _ := empty.PeakInBand(math.Inf(-1), math.Inf(1)); !math.IsInf(dbm, -1) {
		t.Error("empty sweep peak not -inf")
	}
}

func TestMeasurePeakAveragesNoise(t *testing.T) {
	sa, _ := NewSpectrumAnalyzer("x", 9e3, 1.5e9, 1e6, 99)
	freqs := []float64{67e6}
	watts := []float64{1e-6}
	m30, err := sa.MeasurePeak(freqs, watts, 50e6, 200e6, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m30.PeakDBm-(-30)) > 2 {
		t.Fatalf("averaged peak %v dBm, want ~-30", m30.PeakDBm)
	}
	if math.Abs(m30.PeakHz-67e6) > sa.RBWHz {
		t.Fatalf("dominant freq %v", m30.PeakHz)
	}
	if m30.Samples != 30 || m30.StdevDBm <= 0 {
		t.Fatalf("measurement metadata %+v", m30)
	}
	if _, err := sa.MeasurePeak(freqs, watts, 50e6, 200e6, 0); err == nil {
		t.Error("0 samples accepted")
	}
	if _, err := sa.MeasurePeak(freqs, watts, 2e9, 3e9, 3); err == nil {
		t.Error("band outside span accepted")
	}
}

// TestScopeFor pins the one visibility→scope mapping the lab's CAPS reply,
// the local backend's capability record and both measurer builders share.
func TestScopeFor(t *testing.T) {
	for _, c := range []struct {
		visibility, kind, model string
	}{
		{"oc-dso", "oc-dso", NewOCDSO(0).Model},
		{"kelvin-pads", "bench-scope", NewBenchScope(0).Model},
		{"none", "", ""},
		{"", "", ""},
	} {
		kind, newScope := ScopeFor(c.visibility)
		if kind != c.kind {
			t.Errorf("%q: kind %q, want %q", c.visibility, kind, c.kind)
		}
		if (newScope == nil) != (c.model == "") {
			t.Fatalf("%q: constructor presence mismatch", c.visibility)
		}
		if newScope != nil {
			if dso := newScope(9); dso.Model != c.model || dso.seed != 9 {
				t.Errorf("%q: built %s seeded %d", c.visibility, dso.Model, dso.seed)
			}
		}
	}
}

func TestDSOValidate(t *testing.T) {
	if err := NewOCDSO(1).Validate(); err != nil {
		t.Errorf("OC-DSO invalid: %v", err)
	}
	if err := NewBenchScope(1).Validate(); err != nil {
		t.Errorf("bench scope invalid: %v", err)
	}
	bad := NewOCDSO(1)
	bad.Bits = 0
	if err := bad.Validate(); err == nil {
		t.Error("0-bit DSO accepted")
	}
}

func TestDSOCaptureTracksSignal(t *testing.T) {
	// A 10 MHz, 50 mV sine rides on 1 V; the OC-DSO must report its
	// peak-to-peak within quantization + noise error.
	const (
		f0  = 10e6
		amp = 0.025
	)
	n := 4096
	dt := 0.25e-9
	resp := &pdn.Response{Dt: dt, VDie: make([]float64, n), IDie: make([]float64, n)}
	for i := range resp.VDie {
		resp.VDie[i] = 1.0 + amp*math.Sin(2*math.Pi*f0*float64(i)*dt)
	}
	dso := NewOCDSO(5)
	trace, err := dso.Capture(resp)
	if err != nil {
		t.Fatal(err)
	}
	ptp := trace.PeakToPeak()
	if math.Abs(ptp-2*amp) > 0.008 {
		t.Fatalf("captured p2p %v, want ~%v", ptp, 2*amp)
	}
	droop := trace.MaxDroop(1.0)
	if math.Abs(droop-amp) > 0.006 {
		t.Fatalf("captured droop %v, want ~%v", droop, amp)
	}
	// The spectrum should spike at 10 MHz.
	freqs, amps := trace.Spectrum()
	pf, pa, ok := dsp.MaxInBand(freqs, amps, 1e6, 100e6)
	if !ok || pa < amp/2 {
		t.Fatalf("spectrum peak %v at %v", pa, pf)
	}
	if math.Abs(pf-f0) > 2e6 {
		t.Fatalf("spectrum peak at %v, want ~10 MHz", pf)
	}
}

func TestDSOCaptureErrors(t *testing.T) {
	dso := NewOCDSO(1)
	if _, err := dso.Capture(nil); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := dso.Capture(&pdn.Response{Dt: 1e-12, VDie: []float64{1, 1, 1}}); err == nil {
		t.Error("too-short response accepted")
	}
}

func TestDSOBandwidthLimits(t *testing.T) {
	// A tone far above the scope bandwidth should be attenuated.
	mk := func(f0 float64) float64 {
		n := 8192
		dt := 0.05e-9
		resp := &pdn.Response{Dt: dt, VDie: make([]float64, n), IDie: make([]float64, n)}
		for i := range resp.VDie {
			resp.VDie[i] = 1.0 + 0.05*math.Sin(2*math.Pi*f0*float64(i)*dt)
		}
		dso := NewOCDSO(9)
		dso.NoiseSigmaV = 0 // isolate the filter
		trace, err := dso.Capture(resp)
		if err != nil {
			t.Fatal(err)
		}
		return trace.PeakToPeak()
	}
	low := mk(20e6)
	high := mk(3e9)
	if high > low/2 {
		t.Fatalf("no bandwidth roll-off: p2p %v at 3 GHz vs %v at 20 MHz", high, low)
	}
}

func TestSCLValidate(t *testing.T) {
	if err := NewSCL(0.5).Validate(); err != nil {
		t.Errorf("default SCL invalid: %v", err)
	}
	if err := (&SCL{AmpA: 0, Harmonics: 3, SamplesPerPeriod: 64}).Validate(); err == nil {
		t.Error("zero amplitude accepted")
	}
	if err := (&SCL{AmpA: 1, Harmonics: 0, SamplesPerPeriod: 64}).Validate(); err == nil {
		t.Error("0 harmonics accepted")
	}
	if err := (&SCL{AmpA: 1, Harmonics: 3, SamplesPerPeriod: 2}).Validate(); err == nil {
		t.Error("2 samples accepted")
	}
}

func TestSCLSweepFindsResonance(t *testing.T) {
	m := a72Model(t, 2)
	scl := NewSCL(0.5)
	dso := NewOCDSO(11)
	points, err := scl.Sweep(m, dso, 50e6, 90e6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 41 {
		t.Fatalf("got %d sweep points", len(points))
	}
	peak, err := PeakOfSweep(points)
	if err != nil {
		t.Fatal(err)
	}
	// The A72 PDN peak is calibrated at ~67 MHz; the paper reports a
	// flat-ish 66-72 MHz response, so allow that band.
	if peak.Freq < 63e6 || peak.Freq > 73e6 {
		t.Fatalf("SCL resonance at %v MHz, want 63-73", peak.Freq/1e6)
	}
	if peak.PtpV <= 0 {
		t.Fatal("zero swing at resonance")
	}
}

func TestSCLSweepWithOneCoreShiftsUp(t *testing.T) {
	scl := NewSCL(0.5)
	dso := NewOCDSO(13)
	p2, err := scl.Sweep(a72Model(t, 2), dso, 50e6, 110e6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := scl.Sweep(a72Model(t, 1), dso, 50e6, 110e6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	peak2, _ := PeakOfSweep(p2)
	peak1, _ := PeakOfSweep(p1)
	if peak1.Freq <= peak2.Freq {
		t.Fatalf("power-gating did not raise SCL resonance: %v vs %v", peak1.Freq, peak2.Freq)
	}
}

func TestSCLSweepErrors(t *testing.T) {
	m := a72Model(t, 2)
	scl := NewSCL(0.5)
	dso := NewOCDSO(1)
	if _, err := scl.Sweep(m, dso, 0, 1e6, 1e5); err == nil {
		t.Error("fLo=0 accepted")
	}
	if _, err := scl.Sweep(m, dso, 2e6, 1e6, 1e5); err == nil {
		t.Error("fHi<fLo accepted")
	}
	if _, err := scl.Sweep(m, dso, 1e6, 2e6, 0); err == nil {
		t.Error("step=0 accepted")
	}
	if _, err := PeakOfSweep(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	bad := &SCL{AmpA: -1, Harmonics: 3, SamplesPerPeriod: 64}
	if _, err := bad.Excite(m, 1e6); err == nil {
		t.Error("invalid SCL excite accepted")
	}
}

// TestMeasurePeakMatchesFullCapture: the banded fast path inside
// MeasurePeak must reproduce, bit for bit, what a full capture followed by
// PeakInBand yields for every sample — the skipped out-of-band work must
// not perturb the noise stream.
func TestMeasurePeakMatchesFullCapture(t *testing.T) {
	sa, err := NewSpectrumAnalyzer("ref", 1e6, 500e6, 1e6, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 300
	freqs := make([]float64, n)
	watts := make([]float64, n)
	for i := range freqs {
		freqs[i] = 1e6 + float64(i)*1.7e6
		watts[i] = 1e-9 * math.Abs(math.Sin(float64(i)))
	}
	watts[40] = 2e-6 // a clear in-band tone
	lo, hi := 50e6, 120e6
	const samples = 7

	m, err := sa.MeasurePeak(freqs, watts, lo, hi, samples)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: full sweeps via the unbanded capture path.
	h := detrand.HashFloats(freqs, watts)
	peaks := make([]float64, 0, samples)
	votes := map[float64]int{}
	for s := 0; s < samples; s++ {
		sweep := sa.capture(freqs, watts, detrand.Stream(sa.seed, h, uint64(s)))
		f, dbm, ok := sweep.PeakInBand(lo, hi)
		if !ok {
			t.Fatal("reference sweep found no in-band bin")
		}
		peaks = append(peaks, dbm)
		votes[f]++
	}
	var sum float64
	for _, dbm := range peaks {
		w := dsp.FromDBm(dbm)
		sum += w * w
	}
	wantPeak := dsp.DBm(math.Sqrt(sum / samples))
	if m.PeakDBm != wantPeak {
		t.Fatalf("banded PeakDBm %v != reference %v", m.PeakDBm, wantPeak)
	}
	var wantFreq float64
	best := -1
	for f, nv := range votes {
		if nv > best || (nv == best && f < wantFreq) {
			wantFreq, best = f, nv
		}
	}
	if m.PeakHz != wantFreq {
		t.Fatalf("banded PeakHz %v != reference %v", m.PeakHz, wantFreq)
	}

	// Out-of-band request still errors like the reference path.
	if _, err := sa.MeasurePeak(freqs, watts, 600e6, 700e6, 2); err == nil {
		t.Fatal("expected out-of-span error")
	}
}
