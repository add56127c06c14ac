package castore

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openT(t, Options{})
	payload := []byte("the quick brown fox")
	if _, ok := s.Get("ns", 1, 42); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put("ns", 1, 42, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("ns", 1, 42)
	if !ok {
		t.Fatal("miss after put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	// Different key, namespace and version all miss.
	if _, ok := s.Get("ns", 1, 43); ok {
		t.Error("hit on a different key")
	}
	if _, ok := s.Get("other", 1, 42); ok {
		t.Error("hit on a different namespace")
	}
	if _, ok := s.Get("ns", 2, 42); ok {
		t.Error("hit on a different version (stale entries must read as misses)")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 put / 0 corrupt", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("tracked bytes %d, want > 0", st.Bytes)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openT(t, Options{})
	if err := s.Put("ns", 1, 7, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("ns", 1, 7)
	if !ok || len(got) != 0 {
		t.Fatalf("empty payload roundtrip: ok=%v len=%d", ok, len(got))
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s := openT(t, Options{})
	if err := s.Put("ns", 1, 9, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ns", 1, 9, []byte("a longer replacement payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("ns", 1, 9)
	if !ok || string(got) != "a longer replacement payload" {
		t.Fatalf("overwrite not visible: ok=%v got=%q", ok, got)
	}
}

// corruptEntry applies mutate to the single entry file under the store.
func corruptEntry(t *testing.T, s *Store, ns string, key uint64, mutate func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(ns, key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

func quarantined(t *testing.T, s *Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestCorruptionQuarantinedAsMiss(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated-mid-header", func(b []byte) []byte { return b[:headerLen/2] }},
		{"truncated-mid-payload", func(b []byte) []byte { return b[:headerLen+3] }},
		{"truncated-checksum", func(b []byte) []byte { return b[:len(b)-1] }},
		{"garbled-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"garbled-length", func(b []byte) []byte { b[16] ^= 0x10; return b }},
		{"garbled-payload", func(b []byte) []byte { b[headerLen] ^= 0x01; return b }},
		{"garbled-crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"empty-file", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openT(t, Options{})
			if err := s.Put("ns", 1, 5, []byte("payload under test")); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s, "ns", 5, tc.mutate)
			if _, ok := s.Get("ns", 1, 5); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if got := s.Stats().Corrupt; got != 1 {
				t.Errorf("corrupt counter %d, want 1", got)
			}
			if got := quarantined(t, s); got != 1 {
				t.Errorf("%d quarantined files, want 1", got)
			}
			if _, err := os.Stat(s.entryPath("ns", 5)); !os.IsNotExist(err) {
				t.Error("corrupt entry still present under its published name")
			}
			// The slot is reusable: a fresh put serves again.
			if err := s.Put("ns", 1, 5, []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("ns", 1, 5); !ok || string(got) != "recomputed" {
				t.Fatalf("recomputed entry not served: ok=%v got=%q", ok, got)
			}
		})
	}
}

func TestStaleVersionNotQuarantined(t *testing.T) {
	s := openT(t, Options{})
	if err := s.Put("ns", 1, 5, []byte("v1 entry")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("ns", 2, 5); ok {
		t.Fatal("stale-version entry served")
	}
	if got := s.Stats().Corrupt; got != 0 {
		t.Errorf("stale version counted as corruption (%d)", got)
	}
	// The old-version reader still sees it.
	if _, ok := s.Get("ns", 1, 5); !ok {
		t.Error("v1 entry lost after v2 read")
	}
}

func TestCrossStoreSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("ns", 1, 77, []byte("written by A")); err != nil {
		t.Fatal(err)
	}
	// A second store handle over the same directory (two processes in
	// miniature) sees A's entry, including the size accounting at Open.
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("ns", 1, 77)
	if !ok || string(got) != "written by A" {
		t.Fatalf("store B missed store A's entry: ok=%v got=%q", ok, got)
	}
	if b.Stats().Bytes <= 0 {
		t.Error("store B did not account pre-existing bytes at Open")
	}
}

func TestGCEvictsOldestFirst(t *testing.T) {
	// Budget that holds only a few of the ~large entries.
	payload := make([]byte, 4096)
	s := openT(t, Options{MaxBytes: 4 * int64(len(payload))})
	for k := uint64(0); k < 8; k++ {
		if err := s.Put("ns", 1, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions past the byte budget")
	}
	if st.Bytes > 4*int64(len(payload)) {
		t.Errorf("residency %d over budget %d after GC", st.Bytes, 4*len(payload))
	}
	// The most recent entry must have survived.
	if _, ok := s.Get("ns", 1, 7); !ok {
		t.Error("most recently written entry was evicted")
	}
}

func TestGCDisabled(t *testing.T) {
	payload := make([]byte, 1024)
	s := openT(t, Options{MaxBytes: -1})
	for k := uint64(0); k < 16; k++ {
		if err := s.Put("ns", 1, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Evictions; got != 0 {
		t.Errorf("%d evictions with GC disabled", got)
	}
}

// TestStoreConcurrentAccess hammers one store from many goroutines mixing
// Get, Put and GC pressure; run under -race (and looped by
// `make cache-stress`) it pins the store's concurrency contract.
func TestStoreConcurrentAccess(t *testing.T) {
	s := openT(t, Options{MaxBytes: 64 * 1024})
	payload := make([]byte, 512)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				key := uint64(i % 16)
				if i%2 == 0 {
					_ = s.Put("ns", 1, key, payload)
				} else if got, ok := s.Get("ns", 1, key); ok && len(got) != len(payload) {
					t.Errorf("worker %d: payload len %d, want %d", w, len(got), len(payload))
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
