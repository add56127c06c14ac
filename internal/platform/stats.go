package platform

import (
	"fmt"
	"strings"

	"repro/internal/uarch"
)

// EvalStats returns a multi-line human-readable summary of the evaluation
// caches serving this domain: the clock-invariant uarch trace cache and
// the steady-state extrapolation counter. core.Bench.EvalStats adds the
// persistent store and the bench's batch line; the CLIs print that under
// -v so every tool reports the same counters in the same format.
func (d *Domain) EvalStats() string {
	var b strings.Builder
	ts := uarch.TraceCacheStats()
	fmt.Fprintf(&b, "trace cache: %d hits / %d misses / %d extensions / %d evictions, %d entries (%d cycles held)\n",
		ts.Hits, ts.Misses, ts.Extensions, ts.Evictions, ts.Entries, ts.Cycles)
	fmt.Fprintf(&b, "steady-state extrapolation: %d simulated cycles skipped", uarch.ExtrapolatedCycles())
	return b.String()
}
