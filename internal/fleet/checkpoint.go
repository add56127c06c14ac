package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// Checkpoint is the fleet coordinator's durable campaign journal: one JSON
// line per completed shard, keyed by content. A record names the campaign
// (a 64-bit hash of everything the result depends on except the item
// itself: kind, platform, domain, powered cores, seeds, sample depth) and
// the item (the same 64-bit content key the bench measurement memo
// already trusts), so a resumed
// coordinator replays a hit only when both hashes match — a changed
// powered-core count or a mutated workload misses cleanly and re-measures.
//
// The journal is append-only, and a record counts only once its newline
// is on disk. A torn final line (coordinator killed mid-write) has none: it
// is dropped and truncated away on open, so the next record starts on a
// fresh line. A corrupt line is dropped by JSON validity and strict key
// parsing; every other line stays usable. Because items are keyed by
// content rather than position, a GA elite that survives into the next
// generation replays for free, and two campaigns over overlapping grids
// share hits.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[ckptKey]json.RawMessage

	hits, misses, dropped uint64
}

type ckptKey struct {
	campaign uint64
	item     uint64
}

type ckptRecord struct {
	Campaign string          `json:"campaign"`
	Item     string          `json:"item"`
	Result   json.RawMessage `json:"result"`
}

// OpenCheckpoint opens (creating if needed) a campaign journal, loads
// every intact record into the in-memory index and truncates a torn tail.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open checkpoint: %w", err)
	}
	c := &Checkpoint{f: f, done: make(map[ckptKey]json.RawMessage)}
	r := bufio.NewReader(f)
	var end int64 // just past the last newline-terminated line
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				c.dropped++ // torn tail: no newline, so never committed
			}
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
		}
		end += int64(len(line))
		c.load(line[:len(line)-1])
	}
	// Appending after a torn tail would glue the next record onto the
	// fragment, and the next open would drop both.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: truncate checkpoint: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: seek checkpoint: %w", err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// load indexes one journal line, counting it as dropped when it is not a
// record Add could have written.
func (c *Checkpoint) load(line []byte) {
	if len(line) == 0 {
		return
	}
	var rec ckptRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		c.dropped++ // corrupt line: ignore, re-measure covers it
		return
	}
	campaign, ok1 := parseCkptKey(rec.Campaign)
	item, ok2 := parseCkptKey(rec.Item)
	if !ok1 || !ok2 {
		c.dropped++
		return
	}
	c.done[ckptKey{campaign, item}] = append(json.RawMessage(nil), rec.Result...)
}

// formatCkptKey is the journal's text form of a key: exactly 16 lower-case
// hex digits.
func formatCkptKey(k uint64) string { return fmt.Sprintf("%016x", k) }

// parseCkptKey accepts only the exact text formatCkptKey writes, so a
// garbled key can never alias a valid one (a lenient scan reads "5zz" as 5).
func parseCkptKey(s string) (uint64, bool) {
	k, err := strconv.ParseUint(s, 16, 64)
	if err != nil || formatCkptKey(k) != s {
		return 0, false
	}
	return k, true
}

// Lookup returns the stored result for (campaign, item) if present,
// unmarshalled into out.
func (c *Checkpoint) Lookup(campaign, item uint64, out any) bool {
	c.mu.Lock()
	raw, ok := c.done[ckptKey{campaign, item}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false // unreadable payload: treat as a miss
	}
	return true
}

// Add journals one completed shard and flushes it to disk, so a coordinator
// killed right after sees the record on restart.
func (c *Checkpoint) Add(campaign, item uint64, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint result: %w", err)
	}
	rec := ckptRecord{
		Campaign: formatCkptKey(campaign),
		Item:     formatCkptKey(item),
		Result:   raw,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint record: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := ckptKey{campaign, item}
	if _, ok := c.done[key]; ok {
		return nil // already journaled (speculative duplicate finished twice)
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("fleet: checkpoint write: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("fleet: checkpoint flush: %w", err)
	}
	c.done[key] = raw
	return nil
}

// Len reports the number of journaled shards.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Stats returns hit/miss/dropped counters for -v output.
func (c *Checkpoint) Stats() (hits, misses, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.dropped
}

// Close flushes and releases the journal file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	ferr := c.w.Flush()
	cerr := c.f.Close()
	c.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
