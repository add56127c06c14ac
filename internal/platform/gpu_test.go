package platform

import (
	"math"
	"testing"

	"repro/internal/slab"
)

func TestGPUCard(t *testing.T) {
	p, err := GPUCard()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(DomainGPU)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.TotalCores != 8 {
		t.Fatalf("GPU has %d SMs", d.Spec.TotalCores)
	}
	if d.Spec.VoltageVisibility != "none" {
		t.Fatalf("GPU visibility %q — the EM method is the point", d.Spec.VoltageVisibility)
	}
	if err := GPUSM().Validate(); err != nil {
		t.Fatalf("GPU SM config: %v", err)
	}
}

func TestGPUResonanceCalibration(t *testing.T) {
	p, err := GPUCard()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(DomainGPU)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Model()
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := m.ResonancePeak(20e6, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-56e6) > 4e6 {
		t.Fatalf("GPU resonance %.1f MHz, want ~56", f/1e6)
	}
	// Gating SMs raises the resonance, as on the CPU clusters.
	if err := d.SetPoweredCores(2); err != nil {
		t.Fatal(err)
	}
	defer d.Reset()
	m2, err := d.Model()
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := m2.ResonancePeak(20e6, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= f+10e6 {
		t.Fatalf("gating 6 of 8 SMs shifted only %v -> %v", f, f2)
	}
}

func TestGPUWorkloadRuns(t *testing.T) {
	p, err := GPUCard()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(DomainGPU)
	if err != nil {
		t.Fatal(err)
	}
	seq := probeLoop(t, d.Spec.Pool())
	resp, ur, err := d.SteadyVDie(Load{Seq: seq, ActiveCores: 8}, 0.25e-9, 4096, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	if ur.IPC <= 0 {
		t.Fatal("no IPC")
	}
	if droop := resp.MaxDroop(d.Spec.PDN.VNominal); droop <= 0 || droop > 0.5 {
		t.Fatalf("GPU droop %v implausible", droop)
	}
}
