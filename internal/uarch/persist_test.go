package uarch

import (
	"math/rand"
	"testing"

	"repro/internal/castore"
	"repro/internal/isa"
)

// withStore installs a fresh disk tier rooted in a test tempdir and resets
// the in-memory cache around fn, restoring both afterwards.
func withStore(t *testing.T, s *castore.Store, fn func()) {
	t.Helper()
	prev := SetPersistentStore(s)
	ResetTraceCache()
	defer func() {
		SetPersistentStore(prev)
		ResetTraceCache()
	}()
	fn()
}

func openStore(t *testing.T) *castore.Store {
	t.Helper()
	s, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskWarmTraceBitIdentical pins the trace tier's contract: a run
// served from a populated store in a "new process" (empty in-memory cache)
// is bit-identical to a fresh simulation, and actually comes from disk.
func TestDiskWarmTraceBitIdentical(t *testing.T) {
	cfg := CortexA72()
	seq := isa.ARM64Pool().RandomSequence(rand.New(rand.NewSource(7)), 40)
	const steady = 3000
	want := uncachedRun(t, cfg, seq, steady)

	s := openStore(t)
	withStore(t, s, func() {
		if _, err := Run(cfg, seq, steady); err != nil {
			t.Fatal(err)
		}
	})
	if s.Stats().Puts == 0 {
		t.Fatal("first run wrote nothing through to disk")
	}

	// Fresh in-memory cache over the same store: the history must come back
	// from disk without simulating.
	withStore(t, s, func() {
		got, err := Run(cfg, seq, steady)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "disk-warm", got, want)
	})
	if s.Stats().Hits == 0 {
		t.Fatal("second run never hit the disk tier")
	}
}

// TestDiskPartialEntryExtends covers the short-entry path: a store holding
// a shorter history than requested must not be trusted as-is — the fill
// re-simulates (with the doubling floor) and the longer history replaces
// the disk entry, never shrinking it.
func TestDiskPartialEntryExtends(t *testing.T) {
	cfg := CortexA72()
	seq := isa.ARM64Pool().RandomSequence(rand.New(rand.NewSource(8)), 40)

	s := openStore(t)
	withStore(t, s, func() {
		if _, err := Run(cfg, seq, 500); err != nil {
			t.Fatal(err)
		}
	})

	const longer = 6000
	want := uncachedRun(t, cfg, seq, longer)
	withStore(t, s, func() {
		got, err := Run(cfg, seq, longer)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "extended-past-disk", got, want)
	})

	// The store entry now covers the longer window: a third cold start must
	// serve it from disk alone.
	hitsBefore := s.Stats().Hits
	withStore(t, s, func() {
		got, err := Run(cfg, seq, longer)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "disk-warm-after-extension", got, want)
	})
	if s.Stats().Hits == hitsBefore {
		t.Fatal("extended entry was not served from disk")
	}
}

// TestDiskEntryVerifiedAgainstContent: an entry stored under a key must
// never be served for different content — decode verifies the full
// (Config, Seq) echo, so a forged or mis-keyed payload degrades to a miss.
func TestDiskEntryVerifiedAgainstContent(t *testing.T) {
	cfg := CortexA72()
	pool := isa.ARM64Pool()
	seqA := pool.RandomSequence(rand.New(rand.NewSource(9)), 40)
	seqB := pool.RandomSequence(rand.New(rand.NewSource(10)), 40)
	const steady = 1000

	s := openStore(t)
	withStore(t, s, func() {
		if _, err := Run(cfg, seqA, steady); err != nil {
			t.Fatal(err)
		}
	})

	// Copy A's payload under B's key, simulating a (cosmically unlikely)
	// 64-bit hash collision between two workloads.
	keyA := traceKey(&cfg, seqA)
	keyB := traceKey(&cfg, seqB)
	payload, ok := s.Get(traceNS, traceCodecVersion, keyA)
	if !ok {
		t.Fatal("stored payload unreadable")
	}
	if err := s.Put(traceNS, traceCodecVersion, keyB, payload); err != nil {
		t.Fatal(err)
	}

	want := uncachedRun(t, cfg, seqB, steady)
	withStore(t, s, func() {
		got, err := Run(cfg, seqB, steady)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "collision-fallback", got, want)
	})
}

// TestCacheOffSkipsDisk: with the trace cache disabled, the disk tier must
// not be consulted or written — determinism baselines and cold benchmarks
// stay genuinely cold.
func TestCacheOffSkipsDisk(t *testing.T) {
	cfg := CortexA72()
	seq := isa.ARM64Pool().RandomSequence(rand.New(rand.NewSource(11)), 40)

	s := openStore(t)
	prevOn := SetTraceCacheEnabled(false)
	defer SetTraceCacheEnabled(prevOn)
	withStore(t, s, func() {
		if _, err := Run(cfg, seq, 1000); err != nil {
			t.Fatal(err)
		}
	})
	st := s.Stats()
	if st.Hits+st.Misses+st.Puts != 0 {
		t.Fatalf("cache-off run touched the disk tier: %+v", st)
	}
}

// TestTraceEntryCodecRoundtrip exercises encode/decode directly, including
// the truncation discipline: every strict prefix of a valid payload must
// decode to nil, never to a wrong history.
func TestTraceEntryCodecRoundtrip(t *testing.T) {
	cfg := CortexA72()
	seq := isa.ARM64Pool().RandomSequence(rand.New(rand.NewSource(12)), 25)
	hist, err := simulate(&cfg, seq, 800)
	if err != nil {
		t.Fatal(err)
	}
	e := &traceEntry{key: traceKey(&cfg, seq), cfg: cfg, seq: seq}
	payload := encodeTraceEntry(e, hist)

	got := decodeTraceEntry(payload, e)
	if got == nil {
		t.Fatal("decode of a fresh encode failed")
	}
	if got.warmup != hist.warmup || got.steady != hist.steady {
		t.Fatalf("window (%d, %d) != (%d, %d)", got.warmup, got.steady, hist.warmup, hist.steady)
	}
	wantRes, _ := hist.synth(800)
	gotRes, err := got.synth(800)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "codec-roundtrip", gotRes, wantRes)
	if got.cfg != &e.cfg {
		t.Error("decoded history does not share the entry's config pointer")
	}

	for n := 0; n < len(payload); n += 97 {
		if decodeTraceEntry(payload[:n], e) != nil {
			t.Fatalf("truncated payload (len %d) decoded", n)
		}
	}

	// Content mismatch: different sequence under the same payload.
	other := &traceEntry{key: e.key, cfg: cfg, seq: seq[:len(seq)-1]}
	if decodeTraceEntry(payload, other) != nil {
		t.Fatal("payload decoded for an entry with different content")
	}
}
