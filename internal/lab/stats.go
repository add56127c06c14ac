package lab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// CommandStats aggregates the client-side view of one protocol verb.
type CommandStats struct {
	Calls   int64         // commands issued (counting each retried command once)
	Errors  int64         // commands that ultimately failed
	Retries int64         // extra attempts beyond the first
	Total   time.Duration // wall-clock across all calls, retries included
}

// Avg returns the mean wall-clock latency per call.
func (c CommandStats) Avg() time.Duration {
	if c.Calls == 0 {
		return 0
	}
	return c.Total / time.Duration(c.Calls)
}

// Stats is a snapshot of a Client's (or a Pool's aggregated) transport
// counters: how often it dialed, how often a fault forced a reconnect, how
// many setpoint replays those reconnects performed, and per-command
// latency/retry/error tallies. Surfaced by `gahunt -v`.
type Stats struct {
	Dials      int64 // connections established (including the first)
	Reconnects int64 // connections re-established after a transport fault
	Replays    int64 // setpoint replay passes run on reconnect
	Commands   map[string]CommandStats
}

// merge folds other into s.
func (s *Stats) merge(other Stats) {
	s.Dials += other.Dials
	s.Reconnects += other.Reconnects
	s.Replays += other.Replays
	if s.Commands == nil {
		s.Commands = make(map[string]CommandStats)
	}
	for verb, cs := range other.Commands {
		cur := s.Commands[verb]
		cur.Calls += cs.Calls
		cur.Errors += cs.Errors
		cur.Retries += cs.Retries
		cur.Total += cs.Total
		s.Commands[verb] = cur
	}
}

// String renders the snapshot as a small human-readable table.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lab transport: %d dial(s), %d reconnect(s), %d replay(s)",
		s.Dials, s.Reconnects, s.Replays)
	verbs := make([]string, 0, len(s.Commands))
	for v := range s.Commands {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	for _, v := range verbs {
		cs := s.Commands[v]
		fmt.Fprintf(&b, "\n  %-8s %6d calls  %3d retries  %3d errors  avg %v",
			v, cs.Calls, cs.Retries, cs.Errors, cs.Avg().Round(time.Microsecond))
	}
	return b.String()
}

// statsCollector is the mutable counter set behind Stats. It has its own
// lock so the Pool can snapshot clients without stopping them.
type statsCollector struct {
	mu sync.Mutex
	s  Stats
}

func (sc *statsCollector) dial(reconnect bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.s.Dials++
	if reconnect {
		sc.s.Reconnects++
	}
}

func (sc *statsCollector) replay() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.s.Replays++
}

func (sc *statsCollector) retry(verb string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.ensure(verb)
	cs := sc.s.Commands[verb]
	cs.Retries++
	sc.s.Commands[verb] = cs
}

func (sc *statsCollector) done(verb string, elapsed time.Duration, failed bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.ensure(verb)
	cs := sc.s.Commands[verb]
	cs.Calls++
	cs.Total += elapsed
	if failed {
		cs.Errors++
	}
	sc.s.Commands[verb] = cs
}

func (sc *statsCollector) ensure(verb string) {
	if sc.s.Commands == nil {
		sc.s.Commands = make(map[string]CommandStats)
	}
}

// snapshot returns a deep copy of the counters.
func (sc *statsCollector) snapshot() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := sc.s
	out.Commands = make(map[string]CommandStats, len(sc.s.Commands))
	for v, cs := range sc.s.Commands {
		out.Commands[v] = cs
	}
	return out
}
