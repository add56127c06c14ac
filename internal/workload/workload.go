// Package workload provides the benchmark programs the paper compares its
// viruses against, rebuilt as deterministic instruction loops on the isa
// pools: an idle loop, the Section 5.3 resonance-probe loop, synthetic
// proxies for the SPEC2006 benchmarks used on the ARM clusters (Figures 10
// and 14), and proxies for the Windows desktop suite used on the AMD
// platform (Figure 18: Prime95, the AMD stability test, Blender, Cinebench,
// Euler3D, WebXPRT, GeekBench).
//
// The proxies are *signatures*, not ports: each reproduces the electrical
// character that matters for voltage noise — sustained high IPC with flat
// current (big IR drop, small dI/dt) for the power viruses like Prime95,
// bursty memory/FP alternation for lbm, dependence-chain-bound low current
// for mcf, and so on. Absolute performance is out of scope (DESIGN.md
// Section 2).
package workload

import (
	"fmt"

	"repro/internal/isa"
)

// Workload names a loop builder.
type Workload struct {
	Name        string
	Description string
	// Build constructs the loop for the given pool's architecture.
	Build func(p *isa.Pool) ([]isa.Inst, error)
}

// want fetches a mnemonic from the pool or reports a helpful error.
func want(p *isa.Pool, names ...string) (*isa.Def, error) {
	for _, n := range names {
		if d, ok := p.DefByMnemonic(n); ok {
			return d, nil
		}
	}
	return nil, fmt.Errorf("workload: pool %v lacks all of %v", p.Arch, names)
}

// Cross-ISA mnemonic aliases: the first name is the ARM form, the second
// the x86 form, the third the RISC-V form. A data-defined pool can use any
// of them; the loop builders only care about the role.
func aliasLoad(p *isa.Pool) (*isa.Def, error)  { return want(p, "ldr", "movload", "ld") }
func aliasStore(p *isa.Pool) (*isa.Def, error) { return want(p, "str", "movstore", "sd") }
func aliasFAdd(p *isa.Pool) (*isa.Def, error)  { return want(p, "fadd", "addsd", "fadd.d") }
func aliasFMul(p *isa.Pool) (*isa.Def, error)  { return want(p, "fmul", "mulsd", "fmul.d") }
func aliasVAdd(p *isa.Pool) (*isa.Def, error)  { return want(p, "vadd", "addps", "vadd.vv") }
func aliasVMul(p *isa.Pool) (*isa.Def, error)  { return want(p, "vmul", "mulps", "vmul.vv") }
func aliasDiv(p *isa.Pool) (*isa.Def, error)   { return want(p, "sdiv", "idiv", "div") }
func aliasMul(p *isa.Pool) (*isa.Def, error)   { return want(p, "mul", "imul") }

// seqBuilder accumulates instructions with round-robin operand assignment.
type seqBuilder struct {
	pool *isa.Pool
	seq  []isa.Inst
	reg  int
	vreg int
	mem  int
	err  error
}

func newSeqBuilder(p *isa.Pool) *seqBuilder { return &seqBuilder{pool: p} }

// def unwraps a (def, error) lookup, capturing the first error.
func (b *seqBuilder) def(d *isa.Def, err error) *isa.Def {
	if err != nil && b.err == nil {
		b.err = err
	}
	return d
}

// indep appends an instance of d with independent (round-robin) operands.
func (b *seqBuilder) indep(d *isa.Def) *seqBuilder {
	if b.err != nil || d == nil {
		return b
	}
	in := isa.Inst{Def: d}
	limit := b.pool.IntRegs
	cursor := &b.reg
	if d.RegFile == isa.RegVec {
		limit = b.pool.VecRegs
		cursor = &b.vreg
	}
	// The top four registers of each file are reserved for chain(), so
	// independent round-robin writes never sever a dependency chain.
	wrap := limit - 4
	if wrap < 2 {
		wrap = limit
	}
	if !d.NoDest {
		in.Dest = *cursor % wrap
		*cursor++
	}
	for i := 0; i < d.NSrc; i++ {
		in.Srcs[i] = (*cursor + i + 3) % wrap
	}
	if d.Mem != isa.MemNone {
		in.Addr = b.mem % b.pool.MemSlots
		b.mem++
	}
	b.seq = append(b.seq, in)
	return b
}

// chain appends an instance of d that depends on its own previous result
// (same register for destination and sources), forming a serial chain.
func (b *seqBuilder) chain(d *isa.Def, reg int) *seqBuilder {
	if b.err != nil || d == nil {
		return b
	}
	limit := b.pool.IntRegs
	if d.RegFile == isa.RegVec {
		limit = b.pool.VecRegs
	}
	// Chains live in the reserved top-four register block (see indep).
	if limit > 4 {
		reg = limit - 1 - (reg % 4)
	} else {
		reg %= limit
	}
	in := isa.Inst{Def: d, Dest: reg}
	for i := 0; i < d.NSrc; i++ {
		in.Srcs[i] = reg
	}
	if d.Mem != isa.MemNone {
		in.Addr = b.mem % b.pool.MemSlots
		b.mem++
	}
	b.seq = append(b.seq, in)
	return b
}

func (b *seqBuilder) build() ([]isa.Inst, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.seq) == 0 {
		return nil, fmt.Errorf("workload: empty loop")
	}
	return b.seq, nil
}

// Idle returns the CPU-idle proxy: a single cheap move, so the rail sees
// essentially base current.
func Idle() Workload {
	return Workload{
		Name:        "idle",
		Description: "idle CPU (wfi proxy)",
		Build: func(p *isa.Pool) ([]isa.Inst, error) {
			b := newSeqBuilder(p)
			return b.indep(b.def(want(p, "mov", "mv"))).build()
		},
	}
}

// Probe returns the Section 5.3 resonance-probe loop: a high-current burst
// of eight independent adds followed by one long unpipelined divide. Its
// loop frequency is modulated by the CPU clock to sweep the EM spike across
// the band.
func Probe() Workload {
	return Workload{
		Name:        "probe",
		Description: "two-phase resonance probe (8 ADD + 1 DIV)",
		Build: func(p *isa.Pool) ([]isa.Inst, error) {
			b := newSeqBuilder(p)
			for i := 0; i < 8; i++ {
				b.indep(b.def(want(p, "add")))
			}
			b.chain(b.def(aliasDiv(p)), 13)
			return b.build()
		},
	}
}
