package session

import (
	"fmt"

	"repro/internal/isa"
)

// VirusProgram parses the stored virus back into an instruction sequence.
func (r *Report) VirusProgram(pool *isa.Pool) ([]isa.Inst, error) {
	if r.Virus == nil {
		return nil, fmt.Errorf("session: report has no virus")
	}
	return isa.ParseProgram(pool, r.Virus.Program)
}
