package fleet

import (
	"fmt"
	"sync"
)

// campaign is one shardable unit of fleet work: a GA generation, a sweep
// grid, a shmoo lattice, or a workload list. Its identity is content, not
// position — key hashes everything a shard's result depends on except the
// item itself (kind, platform, domain, operating point, seeds, averaging
// depth, coordinator salt), and items[i] hashes shard i's own content. The
// run function must be a pure function of (rig equivalence class, item):
// every live rig returns the same bytes for the same item, which is what
// makes work stealing, speculative replication and failover invisible in
// the merged result.
type campaign[R any] struct {
	kind  string
	key   uint64
	items []uint64
	// eligible filters rigs at placement time (nil = every rig). A rig
	// excluded here never sees the campaign's items — this is where
	// capability-aware placement happens (e.g. a GA generation skips rigs
	// that cannot build the requested measurer).
	eligible func(r *rig) bool
	// slots overrides the fleet's per-rig worker count for this campaign
	// (<= 0 uses the fleet default).
	slots int
	run   func(r *rig, item int) (R, error)
}

// sched is the mutable state of one running campaign: a pending queue, a
// per-item replica set, and first-writer-wins results. All fields are
// guarded by mu; cond wakes idle workers when items complete, fail, or
// requeue.
type sched[R any] struct {
	f *Fleet
	c *campaign[R]

	mu      sync.Mutex
	cond    *sync.Cond
	pending []int
	running []map[*rig]bool
	done    []bool
	results []R
	remain  int
	live    int
	err     error
}

// runCampaign executes a campaign across every eligible live rig and
// returns one result per item, merged by index. The schedule is dynamic —
// idle rigs pull from a shared queue, and once the queue drains they
// speculatively replicate in-flight items (the classic straggler cure: a
// slow or silently dying rig never gates the tail, because the first
// finisher wins and all finishers agree bit-for-bit). A rig whose shard
// fails with a transport-class error is declared dead and its orphaned
// items requeue; a *backend.CapabilityError or *lab.TargetError is the
// campaign's fault, not the rig's, and fails the whole campaign
// immediately. Completed shards journal to the fleet checkpoint before
// they are needed again, so a killed coordinator resumes by replay instead
// of re-measurement.
func runCampaign[R any](f *Fleet, c *campaign[R]) ([]R, error) {
	n := len(c.items)
	s := &sched[R]{
		f:       f,
		c:       c,
		running: make([]map[*rig]bool, n),
		done:    make([]bool, n),
		results: make([]R, n),
	}
	s.cond = sync.NewCond(&s.mu)
	f.campaigns.Add(1)
	f.itemsTotal.Add(uint64(n))

	// Replay journaled shards before any rig lifts a finger.
	for i := 0; i < n; i++ {
		if f.ckpt != nil && f.ckpt.Lookup(c.key, c.items[i], &s.results[i]) {
			s.done[i] = true
			f.replayed.Add(1)
			continue
		}
		s.pending = append(s.pending, i)
	}
	s.remain = len(s.pending)
	if s.remain == 0 {
		return s.results, nil
	}

	var workers []*rig
	for _, r := range f.rigs {
		if r.dead.Load() {
			continue
		}
		if c.eligible != nil && !c.eligible(r) {
			continue
		}
		workers = append(workers, r)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("fleet: campaign %s: no live rig is eligible", c.kind)
	}
	s.live = len(workers)

	slots := c.slots
	if slots <= 0 {
		slots = f.slots
	}
	var wg sync.WaitGroup
	for _, r := range workers {
		for k := 0; k < slots; k++ {
			wg.Add(1)
			go func(r *rig) {
				defer wg.Done()
				s.work(r)
			}(r)
		}
	}
	wg.Wait()

	if s.err != nil {
		return nil, s.err
	}
	return s.results, nil
}

// work is one rig slot's loop: acquire, measure, report, repeat.
func (s *sched[R]) work(r *rig) {
	for {
		i := s.acquire(r)
		if i < 0 {
			return
		}
		res, err := s.c.run(r, i)
		if err != nil {
			s.fail(r, i, err)
			continue
		}
		s.complete(r, i, res)
	}
}

// acquire hands the rig its next item: the head of the pending queue when
// there is one, otherwise the least-replicated in-flight item the rig is
// not already running (speculative steal). Returns -1 when the campaign is
// over, has failed, or the rig has died.
func (s *sched[R]) acquire(r *rig) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || s.remain == 0 || r.dead.Load() {
			return -1
		}
		for len(s.pending) > 0 {
			i := s.pending[0]
			s.pending = s.pending[1:]
			if s.done[i] {
				continue // requeued, then a replica finished first
			}
			s.mark(i, r)
			return i
		}
		best, bestN := -1, int(^uint(0)>>1)
		for i, rs := range s.running {
			if s.done[i] || len(rs) == 0 || rs[r] {
				continue
			}
			if len(rs) < bestN {
				best, bestN = i, len(rs)
			}
		}
		if best >= 0 {
			r.stolen.Add(1)
			s.f.steals.Add(1)
			s.mark(best, r)
			return best
		}
		s.cond.Wait()
	}
}

func (s *sched[R]) mark(i int, r *rig) {
	if s.running[i] == nil {
		s.running[i] = make(map[*rig]bool, 2)
	}
	s.running[i][r] = true
}

// complete records a finished shard. The first writer wins; later
// speculative replicas are discarded — by construction they carry the same
// bytes, so which rig "won" is unobservable in the merged result.
func (s *sched[R]) complete(r *rig, i int, res R) {
	first := false
	s.mu.Lock()
	delete(s.running[i], r)
	if !s.done[i] {
		s.done[i] = true
		s.results[i] = res
		s.remain--
		first = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	r.completed.Add(1)
	if first {
		s.f.measured.Add(1)
		if s.f.ckpt != nil {
			if err := s.f.ckpt.Add(s.c.key, s.c.items[i], res); err != nil {
				s.mu.Lock()
				if s.err == nil {
					s.err = err
				}
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}
	}
}

// fail classifies a shard error. Capability and target-rejected errors are
// deterministic — every rig would say the same — so they fail the campaign.
// Anything else (dial/IO timeouts after the client's own retry budget,
// closed pools) condemns the rig: it is marked dead fleet-wide, its item
// requeues if no other replica is in flight, and the campaign only fails
// if that was the last live rig.
func (s *sched[R]) fail(r *rig, i int, err error) {
	fatal := isDeterministicError(err)
	s.mu.Lock()
	if s.running[i] != nil {
		delete(s.running[i], r)
	}
	r.failed.Add(1)
	if fatal {
		if s.err == nil {
			s.err = fmt.Errorf("fleet: campaign %s shard %d: %w", s.c.kind, i, err)
		}
	} else {
		if !r.dead.Swap(true) {
			s.live--
			s.f.failovers.Add(1)
		}
		if !s.done[i] && len(s.running[i]) == 0 {
			s.pending = append(s.pending, i)
			s.f.requeues.Add(1)
		}
		if s.live == 0 && s.remain > 0 && s.err == nil {
			s.err = fmt.Errorf("fleet: campaign %s: every rig failed; last error from rig %s: %w",
				s.c.kind, r.name, err)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}
