package mitigate

import (
	"math"
	"testing"

	"repro/internal/instrument"
	"repro/internal/pdn"
	"repro/internal/platform"
)

func synthetic(vnom, amp, freq, dt float64, n int) *pdn.Response {
	r := &pdn.Response{Dt: dt, VDie: make([]float64, n), IDie: make([]float64, n)}
	for i := range r.VDie {
		r.VDie[i] = vnom - amp*(0.5-0.5*math.Cos(2*math.Pi*freq*float64(i)*dt))
	}
	return r
}

func TestValidate(t *testing.T) {
	good := AdaptiveClock{WarnDroopV: 0.02, EmergencyDroopV: 0.06, ResponseLatencyS: 1e-9}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AdaptiveClock{
		{WarnDroopV: 0, EmergencyDroopV: 0.06},
		{WarnDroopV: 0.06, EmergencyDroopV: 0.02},
		{WarnDroopV: 0.02, EmergencyDroopV: 0.06, ResponseLatencyS: -1},
	}
	for i, ac := range bad {
		if err := ac.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ac := AdaptiveClock{WarnDroopV: 0.02, EmergencyDroopV: 0.06}
	if _, err := Analyze(ac, nil, 1); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := Analyze(AdaptiveClock{}, synthetic(1, 0.1, 1e6, 1e-9, 64), 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAnalyzeCountsAndLead(t *testing.T) {
	// A 100 mV droop oscillation at 10 MHz: period 100 ns. The trace dips
	// below warn (20 mV) well before emergency (60 mV); the lead time is a
	// known fraction of the period.
	const (
		vnom = 1.0
		amp  = 0.1
		freq = 10e6
		dt   = 0.1e-9
	)
	resp := synthetic(vnom, amp, freq, dt, 40000) // 4 us = 40 cycles
	ac := AdaptiveClock{WarnDroopV: 0.02, EmergencyDroopV: 0.06, ResponseLatencyS: 0}
	a, err := Analyze(ac, resp, vnom)
	if err != nil {
		t.Fatal(err)
	}
	if a.Emergencies < 35 || a.Emergencies > 41 {
		t.Fatalf("%d emergencies, want ~40", a.Emergencies)
	}
	if a.Caught != a.Emergencies {
		t.Fatalf("zero-latency mechanism missed %d", a.Emergencies-a.Caught)
	}
	// Analytic lead: cos crossing 0.2*amp to 0.6*amp of the raised-cosine.
	tWarn := math.Acos(1-2*0.2) / (2 * math.Pi * freq)
	tEmg := math.Acos(1-2*0.6) / (2 * math.Pi * freq)
	wantLead := tEmg - tWarn
	if math.Abs(a.MinLeadS-wantLead) > 1e-9 {
		t.Fatalf("lead %v, want %v", a.MinLeadS, wantLead)
	}
	// With latency above the lead, everything is missed.
	ac.ResponseLatencyS = wantLead * 1.5
	a2, err := Analyze(ac, resp, vnom)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Caught != 0 {
		t.Fatalf("latency beyond lead still caught %d", a2.Caught)
	}
}

func TestQuietTraceHasNoEmergencies(t *testing.T) {
	resp := synthetic(1.0, 0.01, 10e6, 1e-9, 4096) // never reaches warn
	ac := AdaptiveClock{WarnDroopV: 0.02, EmergencyDroopV: 0.06}
	a, err := Analyze(ac, resp, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Emergencies != 0 || a.CaughtFraction != 1 {
		t.Fatalf("quiet trace: %+v", a)
	}
}

func TestLatencySweepMonotone(t *testing.T) {
	resp := synthetic(1.0, 0.1, 50e6, 0.1e-9, 20000)
	ac := AdaptiveClock{WarnDroopV: 0.02, EmergencyDroopV: 0.06}
	lats := []float64{0, 0.5e-9, 1e-9, 2e-9, 4e-9, 8e-9}
	points, err := LatencySweep(ac, resp, 1.0, lats)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].CaughtFraction > points[i-1].CaughtFraction {
			t.Fatalf("caught fraction rose with latency at %d: %+v", i, points)
		}
	}
	crit := CriticalLatency(points)
	if crit <= 0 {
		t.Fatal("no workable latency found for a 50 MHz oscillation")
	}
}

// The paper's Section 6 point: power-gating raises the oscillation
// frequency, shrinking the latency budget of adaptive clocking.
func TestPowerGatingShrinksLatencyBudget(t *testing.T) {
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	budget := func(cores int) float64 {
		gated, err := d.Gated(cores)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gated.Model()
		if err != nil {
			t.Fatal(err)
		}
		fRes, _, err := m.ResonancePeak(40e6, 150e6)
		if err != nil {
			t.Fatal(err)
		}
		// Resonant excitation producing ~100 mV of oscillation.
		scl := instrument.NewSCL(1.2)
		resp, err := scl.Excite(m, fRes)
		if err != nil {
			t.Fatal(err)
		}
		ptp := resp.PeakToPeak()
		ac := AdaptiveClock{WarnDroopV: ptp * 0.15, EmergencyDroopV: ptp * 0.45}
		var lats []float64
		for l := 0.0; l <= 8e-9; l += 0.1e-9 {
			lats = append(lats, l)
		}
		points, err := LatencySweep(ac, resp, m.Params.VNominal, lats)
		if err != nil {
			t.Fatal(err)
		}
		return CriticalLatency(points)
	}
	four := budget(4)
	one := budget(1)
	if four <= 0 || one <= 0 {
		t.Fatalf("budgets not positive: %v %v", four, one)
	}
	if one >= four {
		t.Fatalf("power-gating did not shrink the latency budget: 4 cores %v, 1 core %v", four, one)
	}
}
