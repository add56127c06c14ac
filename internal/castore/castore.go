// Package castore is a crash-safe, disk-backed, content-addressed artifact
// store: the persistent tier of the evaluation pipeline, in front of the
// bench's EM measurements. Entries are keyed by 64-bit content hashes of
// everything a reading depends on, laid out in a sharded two-level directory
// tree, and written atomically (temp file + rename) so concurrent processes
// over one directory see only whole entries. A truncated or garbled entry
// is detected by length/checksum framing, quarantined, and treated as a
// miss — the consumer recomputes and overwrites, so corruption can never
// change a result, only cost a re-measurement. The store is size-bounded:
// past the byte budget, the least-recently-used entries (mtime order; a hit
// re-touches an entry last touched over an hour ago) are deleted.
//
// Safety model:
//
//   - Atomicity: entries are published by rename, which POSIX guarantees
//     atomic within a filesystem. Readers see either the old entry, the new
//     entry, or none — never a partial write under a published name.
//   - Integrity: every entry carries a magic/version/key/length header and
//     a trailing CRC32-C over header + payload. Any parse or checksum
//     failure quarantines the file (renamed into quarantine/, preserved for
//     inspection) and reads as a miss.
//   - Cross-process sharing: no locks are needed for correctness. Two
//     processes that miss the same key both compute the same pure value and
//     race to publish; either rename winning leaves a valid entry.
//   - Durability: writes are not fsynced by default (the store is a cache;
//     an entry torn by power loss is quarantined on first read). Opening
//     with Sync true adds an fsync before every publish.
package castore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// magic marks a store entry file ("CAS1" little-endian).
	magic uint32 = 0x31534143
	// headerLen is magic(4) + version(2) + reserved(2) + key(8) + len(8).
	headerLen = 24
	// crcLen is the trailing CRC32-C.
	crcLen = 4
	// quarantineDir collects corrupt entries under the store root.
	quarantineDir = "quarantine"
	// tmpPrefix marks in-flight temp files (skipped by reads, reaped by GC).
	tmpPrefix = ".tmp-"
)

// maxFrameLen caps one entry file, framing included. Put refuses a larger
// payload, and Get quarantines a larger file without reading it, so a
// stray or sparse multi-GiB file at an entry path never sizes an
// allocation. The meas tier's frames are 148 bytes.
const maxFrameLen = 1 << 20

// DefaultMaxBytes is the GC budget when Options.MaxBytes is zero: 1 GiB of
// disk, which holds 262,144 one-block entries (a full
// `repro -exp everything` writes 10,859).
const DefaultMaxBytes = 1 << 30

// blockSize is the allocation unit the budget charges: every entry file
// occupies at least one filesystem block however small its frame, and
// 4 KiB is the block of ext4, XFS, APFS and NTFS at their defaults.
const blockSize = 4096

// diskBytes is the space one file of n bytes is charged against the
// budget: n rounded up to a whole block.
func diskBytes(n int64) int64 { return (n + blockSize - 1) &^ (blockSize - 1) }

// touchAge is how stale a hit entry's mtime must be before Get re-touches
// it. LRU therefore has one-hour granularity: a hit skips the extra
// system call unless the entry was last written or touched over an hour
// ago, and GC, which evicts oldest mtime first, can only mistake the
// order of entries used within the same hour.
const touchAge = time.Hour

// gcLowWater is the fraction of MaxBytes the collector trims down to, so
// each GC pass buys headroom instead of running again on the next put.
const gcLowWater = 0.75

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the store's disk use, each file charged in whole
	// 4 KiB blocks; 0 means DefaultMaxBytes, negative disables GC.
	MaxBytes int64
	// Sync fsyncs every entry before publishing it. Off by default: the
	// store is a cache, and a torn entry is quarantined on first read.
	Sync bool
}

// Stats is a snapshot of the store's counters. Hits/Misses count Get
// traffic; Puts counts published entries; Corrupt counts quarantined
// entries; Evictions counts GC deletions; Bytes is the tracked residency,
// each file counted in whole 4 KiB blocks.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Corrupt   uint64
	Evictions uint64
	Bytes     int64
}

// String renders the stats as the one-line summary the CLIs print.
func (s Stats) String() string {
	total := s.Hits + s.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.Hits) / float64(total)
	}
	return fmt.Sprintf("persistent cache: %d hits / %d misses (%.1f%% hit rate), %d puts, %d corrupt quarantined, %d evicted, %d bytes",
		s.Hits, s.Misses, pct, s.Puts, s.Corrupt, s.Evictions, s.Bytes)
}

// Store is one on-disk cache directory. It is safe for concurrent use by
// multiple goroutines and (without any coordination) multiple processes.
type Store struct {
	dir      string
	maxBytes int64
	sync     bool

	size atomic.Int64 // tracked bytes (exact after Open/GC, advisory between)

	hits, misses, puts, corrupt, evictions atomic.Uint64

	gcMu sync.Mutex // one collector at a time
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("castore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	s := &Store{
		dir:      filepath.Clean(dir),
		maxBytes: opts.MaxBytes,
		sync:     opts.Sync,
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	s.size.Store(s.walkSize())
	return s, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Corrupt:   s.corrupt.Load(),
		Evictions: s.evictions.Load(),
		Bytes:     s.size.Load(),
	}
}

// entryPath is the sharded location of one entry: ns/<first key byte>/<key>.
// Two levels keep directory fan-out bounded (256 shards per namespace) while
// the full hex key in the leaf name makes entries greppable and collision-
// free by construction. Every Get builds one, so the hex digits are
// appended into a single buffer rather than formatted.
func (s *Store) entryPath(ns string, key uint64) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 0, len(s.dir)+len(ns)+len("//00/0123456789abcdef.e"))
	b = append(b, s.dir...)
	b = append(b, filepath.Separator)
	b = append(b, ns...)
	b = append(b, filepath.Separator, digits[key>>60], digits[key>>56&0xf], filepath.Separator)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[key>>shift&0xf])
	}
	b = append(b, ".e"...)
	return string(b)
}

// encodeFrame wraps a payload in the store's framing.
func encodeFrame(version uint16, key uint64, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload)+crcLen)
	putU32 := func(off int, v uint32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	putU64 := func(off int, v uint64) {
		putU32(off, uint32(v))
		putU32(off+4, uint32(v>>32))
	}
	putU32(0, magic)
	buf[4] = byte(version)
	buf[5] = byte(version >> 8)
	// buf[6:8] reserved, zero.
	putU64(8, key)
	putU64(16, uint64(len(payload)))
	copy(buf[headerLen:], payload)
	putU32(headerLen+len(payload), crc32.Checksum(buf[:headerLen+len(payload)], crcTable))
	return buf
}

// frameStatus classifies a read entry.
type frameStatus int

const (
	frameOK frameStatus = iota
	frameStale
	frameCorrupt
)

// decodeFrame validates an entry file's framing and returns its payload.
// frameStale means a structurally valid entry of another codec version
// (a past or future writer): a plain miss, eligible for overwrite, never
// quarantined. Anything else that fails to parse is frameCorrupt.
func decodeFrame(buf []byte, version uint16, key uint64) ([]byte, frameStatus) {
	if len(buf) < headerLen+crcLen {
		return nil, frameCorrupt
	}
	u32 := func(off int) uint32 {
		return uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
	}
	u64 := func(off int) uint64 {
		return uint64(u32(off)) | uint64(u32(off+4))<<32
	}
	if u32(0) != magic {
		return nil, frameCorrupt
	}
	plen := u64(16)
	if plen != uint64(len(buf)-headerLen-crcLen) {
		return nil, frameCorrupt
	}
	body := buf[:headerLen+int(plen)]
	if u32(len(body)) != crc32.Checksum(body, crcTable) {
		return nil, frameCorrupt
	}
	if v := uint16(buf[4]) | uint16(buf[5])<<8; v != version {
		return nil, frameStale
	}
	if u64(8) != key {
		// A valid frame under the wrong name cannot happen by construction;
		// treat it as corruption rather than serve a mis-filed entry.
		return nil, frameCorrupt
	}
	return body[headerLen:], frameOK
}

// Get returns the payload stored under (ns, version, key), or ok=false on
// a miss. A corrupt entry is quarantined and reads as a miss; a hit on an
// entry whose mtime is more than touchAge old re-touches it so GC
// approximates LRU.
//
// On Linux a hit costs four system calls: open, fstat, read and close on
// the raw descriptor, with no os.File, finalizer or poller behind it
// (read_linux.go); other systems read through an os.File
// (read_other.go). The fstat sizes the buffer, so one full read replaces
// os.ReadFile's read-until-EOF loop. Neither the header's length field
// nor the file's size sizes an allocation beyond maxFrameLen: a larger
// file is quarantined unread, and decodeFrame checks the length field
// against the bytes actually read.
func (s *Store) Get(ns string, version uint16, key uint64) ([]byte, bool) {
	path := s.entryPath(ns, key)
	buf, size, mtime, ok := readEntry(path)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	if size > maxFrameLen {
		s.quarantine(path, size)
		s.misses.Add(1)
		return nil, false
	}
	payload, st := decodeFrame(buf, version, key)
	switch st {
	case frameCorrupt:
		s.quarantine(path, size)
		s.misses.Add(1)
		return nil, false
	case frameStale:
		s.misses.Add(1)
		return nil, false
	}
	if now := time.Now(); now.Sub(mtime) > touchAge {
		_ = os.Chtimes(path, now, now) // best-effort LRU touch
	}
	s.hits.Add(1)
	return payload, true
}

// Put publishes a payload under (ns, version, key) via an atomic temp-file
// write and rename, then triggers GC if the store is over budget. Errors
// are swallowed after accounting — a cache that cannot write degrades to a
// cache that misses — and reported via the return for tests.
func (s *Store) Put(ns string, version uint16, key uint64, payload []byte) error {
	if len(payload) > maxFrameLen-headerLen-crcLen {
		return fmt.Errorf("castore: %d-byte payload exceeds the %d-byte frame cap", len(payload), maxFrameLen)
	}
	path := s.entryPath(ns, key)
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	buf := encodeFrame(version, key, payload)
	f, err := os.CreateTemp(shard, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(buf); err == nil && s.sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("castore: %w", err)
	}
	var prev int64
	if st, err := os.Stat(path); err == nil {
		prev = diskBytes(st.Size()) // overwriting: don't double-count
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("castore: %w", err)
	}
	s.puts.Add(1)
	if n := s.size.Add(diskBytes(int64(len(buf))) - prev); s.maxBytes > 0 && n > s.maxBytes {
		s.gc()
	}
	return nil
}

// quarantine moves a corrupt entry aside (unique name, atomic rename) so it
// stops being re-parsed, stays available for inspection, and remains inside
// the GC budget. Failure to quarantine falls back to deletion, which
// releases the file's charge.
func (s *Store) quarantine(path string, n int64) {
	s.corrupt.Add(1)
	size := diskBytes(n)
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		s.size.Add(-size)
		return
	}
	f, err := os.CreateTemp(qdir, filepath.Base(path)+".bad-*")
	if err != nil {
		os.Remove(path)
		s.size.Add(-size)
		return
	}
	f.Close()
	if err := os.Rename(path, f.Name()); err != nil {
		os.Remove(f.Name())
		os.Remove(path)
		s.size.Add(-size)
	}
}

// walkSize sums the store's current on-disk bytes, block-rounded.
func (s *Store) walkSize() int64 {
	var total int64
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += diskBytes(info.Size())
		}
		return nil
	})
	return total
}

// gcFile is one eviction candidate.
type gcFile struct {
	path  string
	size  int64
	mtime time.Time
}

// gc walks the store, recomputes the exact residency (other processes may
// have written entries this store never accounted), and deletes the
// least-recently-touched files until the store is under the low-water mark.
// Orphaned temp files (a writer killed mid-put) older than a minute are
// reaped unconditionally.
func (s *Store) gc() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var files []gcFile
	var total int64
	cutoff := time.Now().Add(-time.Minute)
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) && info.ModTime().Before(cutoff) {
			os.Remove(path)
			return nil
		}
		size := diskBytes(info.Size())
		files = append(files, gcFile{path: path, size: size, mtime: info.ModTime()})
		total += size
		return nil
	})
	limit := int64(gcLowWater * float64(s.maxBytes))
	if total > limit {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		for _, f := range files {
			if total <= limit {
				break
			}
			if os.Remove(f.path) == nil {
				total -= f.size
				s.evictions.Add(1)
			}
		}
	}
	s.size.Store(total)
}
