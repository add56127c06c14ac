package castore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
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

// TestEntryPathLayout pins the on-disk layout: stores written by earlier
// binaries, which formatted the path with fmt and filepath.Join, must keep
// being read.
func TestEntryPathLayout(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{root, root + "/", root + "/./sub/.."} {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []uint64{0, 1, 0xab, 0x0f00000000000000, 0xfedcba9876543210, ^uint64(0)} {
			want := filepath.Join(dir, "meas", fmt.Sprintf("%02x", byte(key>>56)), fmt.Sprintf("%016x.e", key))
			if got := s.entryPath("meas", key); got != want {
				t.Errorf("entryPath(%q, %#x) = %q, want %q", dir, key, got, want)
			}
		}
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

// TestBudgetChargesWholeBlocks: every entry file occupies at least one
// filesystem block, so the budget charges each one in whole 4 KiB blocks —
// at Put, at Open's walk and at GC — and a budget of N blocks holds N small
// entries, not N·4096 / frame-size of them.
func TestBudgetChargesWholeBlocks(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: n * blockSize})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 120) // a meas record's size
	for k := uint64(0); k < n; k++ {
		if err := s.Put("ns", 1, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Bytes != n*blockSize || st.Evictions != 0 {
		t.Fatalf("after %d small puts: %d bytes / %d evictions, want %d / 0", n, st.Bytes, st.Evictions, n*blockSize)
	}
	// Overwriting an entry replaces its charge rather than adding one.
	if err := s.Put("ns", 1, 0, payload[:1]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Bytes; got != n*blockSize {
		t.Fatalf("after an overwrite: %d bytes, want %d", got, n*blockSize)
	}
	other, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := other.Stats().Bytes; got != n*blockSize {
		t.Fatalf("Open's walk counted %d bytes, want %d", got, n*blockSize)
	}
	// One more entry crosses the budget; GC trims to the low-water mark
	// counted in entries: 75% of n blocks.
	if err := s.Put("ns", 1, n, payload); err != nil {
		t.Fatal(err)
	}
	keep := int64(gcLowWater * n)
	st := s.Stats()
	if st.Evictions != uint64(n+1-keep) || st.Bytes != keep*blockSize {
		t.Fatalf("GC past %d entries: %d evictions, %d bytes; want %d evictions, %d bytes",
			n, st.Evictions, st.Bytes, n+1-keep, keep*blockSize)
	}
}

func mtimeOf(t *testing.T, s *Store, key uint64) time.Time {
	t.Helper()
	info, err := os.Stat(s.entryPath("ns", key))
	if err != nil {
		t.Fatal(err)
	}
	return info.ModTime()
}

// TestGCEvictsUnreadBeforeTouched pins the LRU touch: a hit on an entry
// last touched more than touchAge ago moves its mtime to now, so GC evicts
// older entries nobody read before it; a hit on a fresh entry leaves its
// mtime alone.
func TestGCEvictsUnreadBeforeTouched(t *testing.T) {
	s := openT(t, Options{MaxBytes: 4 * blockSize})
	payload := []byte("entry")
	for k := uint64(0); k < 4; k++ {
		if err := s.Put("ns", 1, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Keys 0-2 were written two hours ago (key 0 last); key 3 just now.
	for k := uint64(0); k < 3; k++ {
		old := time.Now().Add(-2*time.Hour - time.Duration(k)*time.Minute)
		if err := os.Chtimes(s.entryPath("ns", k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("ns", 1, 0); !ok {
		t.Fatal("backdated entry missed")
	}
	if age := time.Since(mtimeOf(t, s, 0)); age < -time.Minute || age > time.Minute {
		t.Fatalf("hit on a two-hour-old entry left its mtime %v old, want about now", age)
	}
	fresh := mtimeOf(t, s, 3)
	if _, ok := s.Get("ns", 1, 3); !ok {
		t.Fatal("fresh entry missed")
	}
	if got := mtimeOf(t, s, 3); !got.Equal(fresh) {
		t.Fatalf("hit on a fresh entry moved its mtime %v -> %v", fresh, got)
	}
	// A fifth entry crosses the budget; GC keeps three, evicting the two
	// unread backdated entries and sparing the one the hit touched.
	if err := s.Put("ns", 1, 4, payload); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Evictions; got != 2 {
		t.Fatalf("%d evictions, want 2", got)
	}
	for k, want := range []bool{true, false, false, true, true} {
		if _, err := os.Stat(s.entryPath("ns", uint64(k))); (err == nil) != want {
			t.Errorf("key %d present=%v after GC, want %v", k, err == nil, want)
		}
	}
}

// TestGetReadPathEdges drives Get's single sized read through the cases
// its buffer sizing must get right.
func TestGetReadPathEdges(t *testing.T) {
	big := make([]byte, 64<<10+1)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte("payload under test")
	rewrite := func(mutate func([]byte) []byte) func(*testing.T, *Store) {
		return func(t *testing.T, s *Store) { corruptEntry(t, s, "ns", 5, mutate) }
	}
	cases := []struct {
		name    string
		payload []byte
		setup   func(*testing.T, *Store)
		hit     bool
		corrupt uint64
	}{
		{name: "64KiB-payload", payload: big, hit: true},
		{name: "shorter-than-header", payload: small, corrupt: 1,
			setup: rewrite(func(b []byte) []byte { return append(b[:headerLen], b[headerLen+1:]...) })},
		{name: "longer-than-header", payload: small, corrupt: 1,
			setup: rewrite(func(b []byte) []byte { return append(b, 0) })},
		{name: "huge-length-header", payload: small, corrupt: 1,
			setup: rewrite(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 1<<62); return b })},
		{name: "missing-file", payload: nil,
			setup: func(t *testing.T, s *Store) {
				if err := os.Remove(s.entryPath("ns", 5)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "directory-at-entry-path", payload: nil,
			setup: func(t *testing.T, s *Store) {
				if err := os.Remove(s.entryPath("ns", 5)); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(s.entryPath("ns", 5), 0o755); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openT(t, Options{})
			if err := s.Put("ns", 1, 5, tc.payload); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(t, s)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, ok := s.Get("ns", 1, 5)
			runtime.ReadMemStats(&after)
			if ok != tc.hit {
				t.Fatalf("hit=%v, want %v", ok, tc.hit)
			}
			if ok && !bytes.Equal(got, tc.payload) {
				t.Fatalf("payload of %d bytes came back as %d different bytes", len(tc.payload), len(got))
			}
			// One Get allocates about the file's size, never what a
			// garbled header claims.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(tc.payload))+1<<16 {
				t.Errorf("Get allocated %d bytes for a %d-byte payload", alloc, len(tc.payload))
			}
			st := s.Stats()
			if st.Corrupt != tc.corrupt || quarantined(t, s) != int(tc.corrupt) {
				t.Errorf("%d corrupt counted, %d quarantined; want %d", st.Corrupt, quarantined(t, s), tc.corrupt)
			}
			if !tc.hit && st.Misses != 1 {
				t.Errorf("%d misses, want 1", st.Misses)
			}
		})
	}
}

// TestGetQuarantinesOversizedEntry: a sparse file just over the frame cap
// at an entry path is quarantined without being read, so its size never
// sizes an allocation.
func TestGetQuarantinesOversizedEntry(t *testing.T) {
	s := openT(t, Options{})
	if err := s.Put("ns", 1, 5, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.entryPath("ns", 5), maxFrameLen+1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := s.Get("ns", 1, 5)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("oversized entry read as a hit")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
		t.Errorf("Get allocated %d bytes for an entry over the %d-byte cap", alloc, maxFrameLen)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 || quarantined(t, s) != 1 {
		t.Errorf("%d corrupt, %d misses, %d quarantined; want 1 each", st.Corrupt, st.Misses, quarantined(t, s))
	}
	if _, err := os.Stat(s.entryPath("ns", 5)); !os.IsNotExist(err) {
		t.Errorf("oversized entry still at its path: %v", err)
	}
}

// TestPutRefusesOversizedPayload: Put writes nothing whose frame would
// exceed the cap Get enforces, and accepts a payload that fills it.
func TestPutRefusesOversizedPayload(t *testing.T) {
	s := openT(t, Options{})
	fits := make([]byte, maxFrameLen-headerLen-crcLen)
	if err := s.Put("ns", 1, 6, fits); err != nil {
		t.Fatalf("payload filling the frame cap refused: %v", err)
	}
	if got, ok := s.Get("ns", 1, 6); !ok || len(got) != len(fits) {
		t.Fatalf("payload filling the frame cap: hit=%v, %d bytes", ok, len(got))
	}
	if err := s.Put("ns", 1, 7, make([]byte, len(fits)+1)); err == nil {
		t.Fatal("payload one byte over the frame cap accepted")
	}
	if _, err := os.Stat(s.entryPath("ns", 7)); !os.IsNotExist(err) {
		t.Errorf("refused payload left an entry: %v", err)
	}
	if st := s.Stats(); st.Puts != 1 {
		t.Errorf("%d puts counted, want 1", st.Puts)
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
