package pdn

import (
	"math"
	"testing"
)

func TestSquareWaveCoeffs(t *testing.T) {
	c := SquareWaveCoeffs(2.0, 7)
	if len(c) != 8 {
		t.Fatalf("got %d coefficients", len(c))
	}
	// DC level is amp/2.
	if real(c[0]) != 1.0 || imag(c[0]) != 0 {
		t.Fatalf("DC coefficient %v", c[0])
	}
	// Even harmonics vanish.
	for _, k := range []int{2, 4, 6} {
		if c[k] != 0 {
			t.Fatalf("even harmonic %d = %v", k, c[k])
		}
	}
	// Odd harmonic magnitudes are amp/(pi*k).
	for _, k := range []int{1, 3, 5, 7} {
		want := 2.0 / (math.Pi * float64(k))
		got := math.Hypot(real(c[k]), imag(c[k]))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("harmonic %d magnitude %v, want %v", k, got, want)
		}
	}
}

func TestSquareWaveCoeffsReconstruct(t *testing.T) {
	// Summing the series at sample points approximates the square wave.
	const amp = 1.0
	coeffs := SquareWaveCoeffs(amp, 199)
	const samples = 64
	for s := 0; s < samples; s++ {
		x := real(coeffs[0])
		for k := 1; k < len(coeffs); k++ {
			angle := 2 * math.Pi * float64(k) * float64(s) / samples
			x += 2 * (real(coeffs[k])*math.Cos(angle) - imag(coeffs[k])*math.Sin(angle))
		}
		var want float64
		if s < samples/2 {
			want = amp
		}
		// Skip the discontinuity neighbourhoods (Gibbs).
		if s%32 < 3 || s%32 > 29 {
			continue
		}
		if math.Abs(x-want) > 0.05 {
			t.Fatalf("sample %d: reconstructed %v, want %v", s, x, want)
		}
	}
}

func TestHarmonicResponseValidation(t *testing.T) {
	m := newTestModel(t, 2)
	coeffs := SquareWaveCoeffs(0.5, 9)
	if _, err := m.HarmonicResponse(0, coeffs, 64); err == nil {
		t.Error("f0=0 accepted")
	}
	if _, err := m.HarmonicResponse(1e6, nil, 64); err == nil {
		t.Error("no coefficients accepted")
	}
	if _, err := m.HarmonicResponse(1e6, coeffs, 1); err == nil {
		t.Error("1 sample accepted")
	}
}

func TestHarmonicResponseDCOnly(t *testing.T) {
	// A pure DC load through the harmonic path must match the IR drop.
	m := newTestModel(t, 2)
	resp, err := m.HarmonicResponse(50e6, []complex128{complex(1.0, 0)}, 32)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.Transfers(16, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Params.VNominal - ts.RSeries()
	for i, v := range resp.VDie {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("sample %d: %v, want %v", i, v, want)
		}
	}
	for _, iv := range resp.IDie {
		if math.Abs(iv-1.0) > 1e-9 {
			t.Fatalf("DC inductor current %v, want 1", iv)
		}
	}
}

func TestHarmonicResponseMatchesSteadyState(t *testing.T) {
	// A square wave synthesized via HarmonicResponse must agree with the
	// FFT-based SteadyStateInto path on peak-to-peak swing.
	m := newTestModel(t, 2)
	f0 := m.FirstOrderResonance()
	coeffs := SquareWaveCoeffs(0.5, 63)
	hr, err := m.HarmonicResponse(f0, coeffs, 256)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4096
	dt := 1 / (f0 * 64)
	ts, err := m.Transfers(n, dt)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, n)
	period := 1 / f0
	for i := range load {
		if math.Mod(float64(i)*dt, period) < period/2 {
			load[i] = 0.5
		}
	}
	vdie, err := steadyVDie(ts, load, m.Params.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	hrPtp := hr.PeakToPeak()
	ssPtp := ptp(vdie)
	if math.Abs(hrPtp-ssPtp) > 0.1*hrPtp {
		t.Fatalf("harmonic p2p %v vs steady-state p2p %v", hrPtp, ssPtp)
	}
}

func TestHarmonicResponsePeaksAtResonance(t *testing.T) {
	m := newTestModel(t, 2)
	fRes, _, err := m.ResonancePeak(30e6, 150e6)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := SquareWaveCoeffs(0.5, 31)
	swing := func(f float64) float64 {
		resp, err := m.HarmonicResponse(f, coeffs, 128)
		if err != nil {
			t.Fatal(err)
		}
		return resp.PeakToPeak()
	}
	at := swing(fRes)
	below := swing(fRes * 0.6)
	above := swing(fRes * 1.6)
	if at <= below || at <= above {
		t.Fatalf("no resonant maximum: %v below, %v at, %v above", below, at, above)
	}
}
