package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Checkpoint is the fleet coordinator's durable campaign journal: one JSON
// line per completed shard, keyed by content. A record names the campaign
// (a 64-bit hash of everything the result depends on except the item
// itself: kind, platform, domain, operating point, seeds, sample depth) and
// the item (the same 64-bit content key the bench measurement memo
// already trusts), so a resumed
// coordinator replays a hit only when both hashes match — a changed
// operating point or a mutated workload misses cleanly and re-measures.
//
// The journal is append-only. A torn final line (coordinator killed
// mid-write) is detected by JSON validity and dropped; every intact line
// stays usable. Because items are keyed by content rather than position,
// a GA elite that survives into the next generation replays for free, and
// two campaigns over overlapping grids share hits.
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

// OpenCheckpoint opens (creating if needed) a campaign journal and loads
// every intact record into the in-memory index.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open checkpoint: %w", err)
	}
	c := &Checkpoint{f: f, done: make(map[ckptKey]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec ckptRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			c.dropped++ // torn or corrupt line: ignore, re-measure covers it
			continue
		}
		var key ckptKey
		if _, err := fmt.Sscanf(rec.Campaign, "%x", &key.campaign); err != nil {
			c.dropped++
			continue
		}
		if _, err := fmt.Sscanf(rec.Item, "%x", &key.item); err != nil {
			c.dropped++
			continue
		}
		c.done[key] = append(json.RawMessage(nil), rec.Result...)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
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
		Campaign: fmt.Sprintf("%016x", campaign),
		Item:     fmt.Sprintf("%016x", item),
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
