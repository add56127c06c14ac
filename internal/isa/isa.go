// Package isa defines the instruction-set abstractions the stress-test
// generator works with: instruction classes, per-instruction timing and
// switching-charge figures, architectural register pools, and the
// instruction *instances* (with concrete operands) that make up a GA
// individual.
//
// Two built-in pools mirror the paper's Section 3.3 instruction mixes: an
// ARMv8-like pool (used for the Cortex-A72 and Cortex-A53 case studies) and
// an x86-64/SSE2-like pool (AMD Athlon II). Pools can also be loaded from
// the XML input format described in Section 3.2 (see xml.go).
//
// Electrical model: each definition carries Charge, the switching charge in
// coulombs the instruction moves per busy cycle. At clock frequency f the
// instruction contributes Charge·f amps while it occupies its unit, which is
// how CPU frequency scaling naturally modulates both loop frequency and
// current amplitude in the fast resonance-sweep method (paper Section 5.3).
package isa

import (
	"fmt"
	"math/rand"
)

// Arch identifies an instruction-set architecture. Beyond the two legacy
// built-ins, values are registry entries created by DefineArch (see
// registry.go); the numeric value of a registered arch is a stable hash of
// its name, so spec-loaded architectures keep the same identity (and the
// same persistent cache keys) in every process.
type Arch int

// The built-in architectures, pre-registered with their legacy ids.
const (
	ARM64 Arch = iota
	X86
)

// String returns the registered name of the architecture.
func (a Arch) String() string {
	if name := archName(a); name != "" {
		return name
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// ParseArch converts a name produced by Arch.String back to an Arch. Any
// architecture registered with DefineArch (or interned from a capability
// record) resolves; legacy aliases of the x86 built-in are accepted.
func ParseArch(s string) (Arch, error) {
	switch s {
	case "x86", "amd64":
		return X86, nil
	}
	if id, ok := lookupArch(s); ok {
		return id, nil
	}
	return 0, fmt.Errorf("isa: unknown architecture %q", s)
}

// Class is the paper's instruction taxonomy (Table 2): branches, short- and
// long-latency integer ops (with x86 memory-operand variants), floating
// point, SIMD, and ARM explicit memory instructions.
type Class int

// Instruction classes.
const (
	Branch Class = iota
	IntShort
	IntLong
	IntShortMem // x86 only: short integer op with a memory operand
	IntLongMem  // x86 only: long integer op with a memory operand
	Float
	SIMD
	Mem // ARM only: explicit load/store
)

var classNames = map[Class]string{
	Branch:      "branch",
	IntShort:    "int-short",
	IntLong:     "int-long",
	IntShortMem: "int-short-mem",
	IntLongMem:  "int-long-mem",
	Float:       "float",
	SIMD:        "simd",
	Mem:         "mem",
}

// String returns the class name used in reports and XML files.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass converts a class name back to a Class.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("isa: unknown instruction class %q", s)
}

// Unit is the functional-unit kind an instruction executes on.
type Unit int

// Functional units.
const (
	UnitALU Unit = iota
	UnitMulDiv
	UnitFP
	UnitSIMD
	UnitLS
	UnitBranch
	numUnits
)

// NumUnits is the count of distinct functional-unit kinds.
const NumUnits = int(numUnits)

var unitNames = map[Unit]string{
	UnitALU:    "alu",
	UnitMulDiv: "muldiv",
	UnitFP:     "fp",
	UnitSIMD:   "simd",
	UnitLS:     "ls",
	UnitBranch: "branch",
}

// String returns the unit name used in reports and XML files.
func (u Unit) String() string {
	if s, ok := unitNames[u]; ok {
		return s
	}
	return fmt.Sprintf("unit(%d)", int(u))
}

// ParseUnit converts a unit name back to a Unit.
func ParseUnit(s string) (Unit, error) {
	for u, name := range unitNames {
		if name == s {
			return u, nil
		}
	}
	return 0, fmt.Errorf("isa: unknown functional unit %q", s)
}

// RegFile selects which register file an instruction's operands live in.
type RegFile int

// Register files.
const (
	RegInt RegFile = iota
	RegVec
)

// MemMode describes how an instruction touches memory.
type MemMode int

// Memory access modes.
const (
	MemNone  MemMode = iota
	MemLoad          // explicit load (ARM LDR) or mov reg, [mem]
	MemStore         // explicit store (ARM STR) or mov [mem], reg
	MemRead          // x86 ALU op with a memory source operand
)

// Def is an instruction definition: everything the micro-architectural and
// electrical models need to know about one mnemonic.
type Def struct {
	Mnemonic string
	Class    Class
	Unit     Unit
	// Latency is the result latency in cycles (dependents wait this long).
	Latency int
	// Block is how many cycles the unit stays busy; 1 means fully
	// pipelined, Block == Latency means unpipelined (e.g. divide).
	Block int
	// Charge is the switching charge in coulombs per busy cycle.
	Charge float64
	// RegFile is the operand register file.
	RegFile RegFile
	// NSrc is the number of register source operands (0-2).
	NSrc int
	// DestIsSrc marks two-operand (x86-style) forms where the destination
	// is also read.
	DestIsSrc bool
	// Mem is the memory behaviour.
	Mem MemMode
	// NoDest marks instructions without a register destination
	// (branches, stores).
	NoDest bool
}

// Validate reports the first inconsistency in the definition.
func (d *Def) Validate() error {
	switch {
	case d.Mnemonic == "":
		return fmt.Errorf("isa: definition with empty mnemonic")
	case d.Latency < 1:
		return fmt.Errorf("isa: %s: latency %d < 1", d.Mnemonic, d.Latency)
	case d.Block < 1 || d.Block > d.Latency:
		return fmt.Errorf("isa: %s: block %d outside [1, latency=%d]", d.Mnemonic, d.Block, d.Latency)
	case d.Charge < 0:
		return fmt.Errorf("isa: %s: negative charge %v", d.Mnemonic, d.Charge)
	case d.NSrc < 0 || d.NSrc > 2:
		return fmt.Errorf("isa: %s: %d sources outside [0,2]", d.Mnemonic, d.NSrc)
	}
	return nil
}

// Inst is an instruction instance: a definition plus concrete operands.
// Register operands are small integers indexing the architectural register
// pool of the instruction's register file; Addr indexes the fixed pool of
// (always-hitting) data addresses.
type Inst struct {
	Def  *Def
	Dest int
	Srcs [2]int
	Addr int
}

// Pool is the instruction universe the GA draws from, together with the
// architectural resources operands are chosen over.
type Pool struct {
	Arch     Arch
	Defs     []Def
	IntRegs  int // number of usable integer registers
	VecRegs  int // number of usable vector/FP registers
	MemSlots int // number of distinct (L1-resident) data addresses

	byMnemonic map[string]*Def
}

// NewPool validates the definitions and builds the lookup index.
func NewPool(arch Arch, defs []Def, intRegs, vecRegs, memSlots int) (*Pool, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("isa: empty instruction pool")
	}
	if intRegs < 2 || vecRegs < 2 || memSlots < 1 {
		return nil, fmt.Errorf("isa: pool needs >=2 registers per file and >=1 memory slot (got %d/%d/%d)",
			intRegs, vecRegs, memSlots)
	}
	p := &Pool{
		Arch: arch, Defs: defs,
		IntRegs: intRegs, VecRegs: vecRegs, MemSlots: memSlots,
		byMnemonic: make(map[string]*Def, len(defs)),
	}
	for i := range p.Defs {
		d := &p.Defs[i]
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := p.byMnemonic[d.Mnemonic]; dup {
			return nil, fmt.Errorf("isa: duplicate mnemonic %q", d.Mnemonic)
		}
		p.byMnemonic[d.Mnemonic] = d
	}
	return p, nil
}

// DefByMnemonic looks up a definition by mnemonic.
func (p *Pool) DefByMnemonic(m string) (*Def, bool) {
	d, ok := p.byMnemonic[m]
	return d, ok
}

// regCount returns the register-file size for a definition.
func (p *Pool) regCount(d *Def) int {
	if d.RegFile == RegVec {
		return p.VecRegs
	}
	return p.IntRegs
}

// RandomInst draws a uniformly random instance from the pool.
func (p *Pool) RandomInst(rng *rand.Rand) Inst {
	d := &p.Defs[rng.Intn(len(p.Defs))]
	return p.randomOperands(rng, d)
}

// randomOperands gives d fresh random operands.
func (p *Pool) randomOperands(rng *rand.Rand, d *Def) Inst {
	n := p.regCount(d)
	in := Inst{Def: d}
	if !d.NoDest {
		in.Dest = rng.Intn(n)
	}
	for i := 0; i < d.NSrc; i++ {
		in.Srcs[i] = rng.Intn(n)
	}
	if d.Mem != MemNone {
		in.Addr = rng.Intn(p.MemSlots)
	}
	return in
}

// MutateOperand rewrites one random operand of the instance in place,
// implementing the paper's operand-level mutation.
func (p *Pool) MutateOperand(rng *rand.Rand, in *Inst) {
	d := in.Def
	n := p.regCount(d)
	slots := 0
	if !d.NoDest {
		slots++
	}
	slots += d.NSrc
	if d.Mem != MemNone {
		slots++
	}
	if slots == 0 {
		return
	}
	pick := rng.Intn(slots)
	if !d.NoDest {
		if pick == 0 {
			in.Dest = rng.Intn(n)
			return
		}
		pick--
	}
	if pick < d.NSrc {
		in.Srcs[pick] = rng.Intn(n)
		return
	}
	in.Addr = rng.Intn(p.MemSlots)
}

// RandomSequence draws a random instruction sequence of the given length.
func (p *Pool) RandomSequence(rng *rand.Rand, n int) []Inst {
	seq := make([]Inst, n)
	for i := range seq {
		seq[i] = p.RandomInst(rng)
	}
	return seq
}

// MixBreakdown counts the fraction of each class in a sequence, as reported
// in the paper's Table 2.
func MixBreakdown(seq []Inst) map[Class]float64 {
	if len(seq) == 0 {
		return nil
	}
	counts := make(map[Class]float64)
	for _, in := range seq {
		counts[in.Def.Class]++
	}
	for c := range counts {
		counts[c] /= float64(len(seq))
	}
	return counts
}
