package platform

import (
	"math"
	"testing"

	"repro/internal/castore"
	"repro/internal/uarch"
)

func openStoreT(t *testing.T) *castore.Store {
	t.Helper()
	s, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withSpectraStore installs the disk tier (platform and uarch together, as
// the CLI does) around fn and restores the previous stores.
func withSpectraStore(t *testing.T, s *castore.Store, fn func()) {
	t.Helper()
	prevP := SetPersistentStore(s)
	prevU := uarch.SetPersistentStore(s)
	uarch.ResetTraceCache()
	defer func() {
		SetPersistentStore(prevP)
		uarch.SetPersistentStore(prevU)
		uarch.ResetTraceCache()
	}()
	fn()
}

func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestSpectraDiskWarmBitIdentical: a second domain instance sharing one
// store must serve spectra from disk and return bit-identical rows and
// simulation results.
func TestSpectraDiskWarmBitIdentical(t *testing.T) {
	const dt, n = 0.25e-9, 4096
	load := Load{Seq: probeLoop(t, domain(t, juno(t), DomainA72).Spec.Pool()), ActiveCores: 2}

	// Baseline without any store.
	dCold := domain(t, juno(t), DomainA72)
	wantF, wantV, wantI, wantRes, err := dCold.Spectra(load, dt, n)
	if err != nil {
		t.Fatal(err)
	}

	s := openStoreT(t)
	withSpectraStore(t, s, func() {
		d1 := domain(t, juno(t), DomainA72)
		if _, _, _, _, err := d1.Spectra(load, dt, n); err != nil {
			t.Fatal(err)
		}
	})
	if s.Stats().Puts == 0 {
		t.Fatal("first evaluation wrote nothing through")
	}

	var hitsAfterWarm uint64
	withSpectraStore(t, s, func() {
		d2 := domain(t, juno(t), DomainA72)
		gotF, gotV, gotI, gotRes, err := d2.Spectra(load, dt, n)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "freqs", gotF, wantF)
		sameFloats(t, "vAmp", gotV, wantV)
		sameFloats(t, "iAmp", gotI, wantI)
		if gotRes == nil {
			t.Fatal("disk-warm spectra dropped the simulation result")
		}
		if gotRes.Warmup != wantRes.Warmup || gotRes.Iterations != wantRes.Iterations ||
			math.Float64bits(gotRes.LoopCycles) != math.Float64bits(wantRes.LoopCycles) ||
			math.Float64bits(gotRes.IPC) != math.Float64bits(wantRes.IPC) {
			t.Fatalf("disk-warm result differs: %+v != %+v", gotRes, wantRes)
		}
		sameFloats(t, "charge", gotRes.Charge, wantRes.Charge)
		if *gotRes.Config != *wantRes.Config {
			t.Error("disk-warm result config content differs")
		}
		hitsAfterWarm = s.Stats().Hits
	})
	if hitsAfterWarm == 0 {
		t.Fatal("second domain never hit the disk tier")
	}
}

// TestSpectraDiskKeySeparatesDomains: two different boards sharing one
// cache directory must never read each other's spectra — the disk key
// folds the full Spec content hash.
func TestSpectraDiskKeySeparatesDomains(t *testing.T) {
	dJuno := domain(t, juno(t), DomainA72)
	dAMD := domain(t, amd(t), DomainAthlon)
	if dJuno.SpecContentHash() == dAMD.SpecContentHash() {
		t.Fatal("distinct specs share a content hash")
	}
	kJuno := dJuno.spectraDiskKey(spectraKey{load: 1, powered: 2, clock: 1e9, supply: 0.9, dt: 0.25e-9, n: 4096})
	kAMD := dAMD.spectraDiskKey(spectraKey{load: 1, powered: 2, clock: 1e9, supply: 0.9, dt: 0.25e-9, n: 4096})
	if kJuno == kAMD {
		t.Fatal("identical operating points on different boards share a disk key")
	}

	// Same board built twice: hashes agree, so separate processes share.
	if got := domain(t, juno(t), DomainA72).SpecContentHash(); got != dJuno.SpecContentHash() {
		t.Fatal("same spec hashes differently across instances")
	}
}

// TestSpectraPayloadVerification: a payload placed under the wrong key
// must fail the identity echo and degrade to a recomputation.
func TestSpectraPayloadVerification(t *testing.T) {
	const dt, n = 0.25e-9, 2048
	d := domain(t, juno(t), DomainA72)
	load := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}

	s := openStoreT(t)
	withSpectraStore(t, s, func() {
		d1 := domain(t, juno(t), DomainA72)
		if _, _, _, _, err := d1.Spectra(load, dt, n); err != nil {
			t.Fatal(err)
		}

		// Graft the stored payload under a different clock's key.
		clock := d1.ClockHz()
		key := spectraKey{load: load.Hash(), powered: d1.PoweredCores(), clock: clock,
			supply: d1.SupplyVolts(), dt: dt, n: n}
		payload, ok := s.Get(spectraNS, spectraCodecVersion, d1.spectraDiskKey(key))
		if !ok {
			t.Fatal("stored spectra unreadable")
		}
		otherKey := key
		otherKey.clock = clock / 2
		if decodeSpectraEntry(payload, d1, otherKey) != nil {
			t.Fatal("payload decoded under a mismatched key")
		}
	})
}
