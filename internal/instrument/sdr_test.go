package instrument

import (
	"math"
	"testing"
)

func TestSDRValidateAndTune(t *testing.T) {
	s := NewRTLSDR(1)
	if err := s.Validate(); err != nil {
		t.Fatalf("default SDR invalid: %v", err)
	}
	bad := NewRTLSDR(1)
	bad.Bits = 0
	if err := bad.Validate(); err == nil {
		t.Error("0-bit SDR accepted")
	}
	if err := s.Tune(-1); err == nil {
		t.Error("negative centre accepted")
	}
	if err := s.Tune(70e6); err != nil {
		t.Fatal(err)
	}
	if s.centerHz != 70e6 {
		t.Fatalf("centre %v", s.centerHz)
	}
}

func TestSDRCaptureErrors(t *testing.T) {
	s := NewRTLSDR(1)
	if _, err := s.CaptureIQ(nil, nil, 64); err == nil {
		t.Error("untuned capture accepted")
	}
	if err := s.Tune(70e6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CaptureIQ([]float64{1}, nil, 64); err == nil {
		t.Error("mismatched spectrum accepted")
	}
	if _, err := s.CaptureIQ(nil, nil, 1); err == nil {
		t.Error("1-sample capture accepted")
	}
}

func TestSDRSliceFindsInBandTone(t *testing.T) {
	s := NewRTLSDR(3)
	if err := s.Tune(70e6); err != nil {
		t.Fatal(err)
	}
	// -35 dBm tone at 70.5 MHz: inside the 2.4 MHz slice around 70 MHz.
	freqs := []float64{60e6, 70.5e6, 90e6}
	watts := []float64{1e-5, 3.16e-7, 1e-5}
	sweep, err := s.SliceSpectrum(freqs, watts, 2048)
	if err != nil {
		t.Fatal(err)
	}
	f, dbm, _ := sweep.PeakInBand(math.Inf(-1), math.Inf(1))
	if math.Abs(f-70.5e6) > 5e3 {
		t.Fatalf("peak at %v, want 70.5 MHz", f)
	}
	if math.Abs(dbm-(-35)) > 3 {
		t.Fatalf("peak %v dBm, want ~-35", dbm)
	}
	// Frequencies must be ascending after the shift.
	for i := 1; i < len(sweep.Freqs); i++ {
		if sweep.Freqs[i] <= sweep.Freqs[i-1] {
			t.Fatal("slice frequencies not ascending")
		}
	}
}

func TestSDROutOfSliceToneInvisible(t *testing.T) {
	s := NewRTLSDR(5)
	if err := s.Tune(70e6); err != nil {
		t.Fatal(err)
	}
	// Strong tone 20 MHz away: completely outside the slice.
	sweep, err := s.SliceSpectrum([]float64{90e6}, []float64{1e-3}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	_, dbm, _ := sweep.PeakInBand(math.Inf(-1), math.Inf(1))
	if dbm > -45 {
		t.Fatalf("out-of-slice tone leaked: %v dBm", dbm)
	}
}

func TestSDRScanCoversBandAndFindsPeak(t *testing.T) {
	s := NewRTLSDR(7)
	freqs := []float64{67e6, 120e6, 190e6}
	watts := []float64{1e-6, 1e-8, 1e-8} // -30, -50, -50 dBm
	sweep, err := s.Scan(freqs, watts, 50e6, 200e6, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f, dbm, ok := sweep.PeakInBand(50e6, 200e6)
	if !ok {
		t.Fatal("no in-band peak")
	}
	if math.Abs(f-67e6) > 10e3 {
		t.Fatalf("scan peak at %v, want 67 MHz", f)
	}
	if math.Abs(dbm-(-30)) > 3 {
		t.Fatalf("scan peak %v dBm, want ~-30", dbm)
	}
	// The secondary tones must also be visible above the scan floor.
	for _, target := range []float64{120e6, 190e6} {
		_, p, ok := sweep.PeakInBand(target-1e6, target+1e6)
		if !ok || p < -55 {
			t.Fatalf("tone at %v not visible: %v dBm", target, p)
		}
	}
	if _, err := s.Scan(freqs, watts, 0, 1e6, 256); err == nil {
		t.Error("invalid span accepted")
	}
}

func TestSDRAgreesWithAnalyzer(t *testing.T) {
	// The cheap receiver and the bench analyzer must identify the same
	// dominant frequency on the same incident spectrum.
	freqs := []float64{55e6, 67e6, 80e6, 150e6}
	watts := []float64{2e-8, 8e-7, 5e-8, 1e-8}

	sa, err := NewSpectrumAnalyzer("ref", 9e3, 1.5e9, 1e6, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sa.MeasurePeak(freqs, watts, 50e6, 200e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	sdr := NewRTLSDR(13)
	sweep, err := sdr.Scan(freqs, watts, 50e6, 200e6, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f, _, ok := sweep.PeakInBand(50e6, 200e6)
	if !ok {
		t.Fatal("no SDR peak")
	}
	if math.Abs(f-m.PeakHz) > 1.5e6 {
		t.Fatalf("SDR peak %v vs analyzer %v", f, m.PeakHz)
	}
}
