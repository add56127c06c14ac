package emnoise

import (
	"testing"

	"repro/internal/slab"
)

func TestPublicGPUPlatform(t *testing.T) {
	p, err := GPUCard()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(DomainGPU)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.TotalCores != 8 {
		t.Fatalf("SM count %d", d.Spec.TotalCores)
	}
	if err := GPUSMCore().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPredictFlow(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	var samples []PredictSample
	for _, name := range []string{"idle", "mcf", "povray", "lbm", "prime95", "namd"} {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.Build(d.Spec.Pool())
		if err != nil {
			t.Fatal(err)
		}
		s, err := CollectPredictSample(bench, d, name, Load{Seq: seq, ActiveCores: 2})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	m, err := TrainDroopModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Features extracted standalone must feed the predictor.
	w, err := WorkloadByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	feats, err := ExtractEMFeatures(bench, d, Load{Seq: seq, ActiveCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pred := m.PredictDroop(feats); pred < 0 {
		t.Fatalf("prediction %v", pred)
	}
	if pred := m.PredictDroop(samples[3].Features); pred <= 0 {
		t.Fatalf("lbm prediction %v", pred)
	}
}

func TestPublicFingerprintAndMitigation(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := CaptureFingerprint(bench, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CompareFingerprints(fp, fp, DefaultFingerprintThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tampered {
		t.Fatal("self-comparison flagged")
	}
	// Mitigation analysis over a real response.
	w, err := WorkloadByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := d.SteadyVDie(Load{Seq: seq, ActiveCores: 2}, 0.25e-9, 4096, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	ac := AdaptiveClock{WarnDroopV: 0.01, EmergencyDroopV: 0.03}
	a, err := AnalyzeMitigation(ac, resp, d.Spec.PDN.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if a.CaughtFraction < 0 || a.CaughtFraction > 1 {
		t.Fatalf("caught fraction %v", a.CaughtFraction)
	}
}

func TestPublicSDR(t *testing.T) {
	sdr := NewRTLSDR(1)
	if err := sdr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ExperimentExtensions()) != 5 {
		t.Fatalf("%d extensions", len(ExperimentExtensions()))
	}
	if _, err := ExperimentByID("ext-sdr"); err != nil {
		t.Fatal(err)
	}
}
