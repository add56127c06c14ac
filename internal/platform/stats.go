package platform

import (
	"fmt"

	"repro/internal/uarch"
)

// EvalStats returns a human-readable summary of the evaluation counters
// serving this domain: the steady-state extrapolation counter.
// core.Bench.EvalStats adds the persistent store and the bench's batch
// line; the CLIs print that under -v so every tool reports the same
// counters in the same format.
func (d *Domain) EvalStats() string {
	return fmt.Sprintf("steady-state extrapolation: %d simulated cycles skipped", uarch.ExtrapolatedCycles())
}
