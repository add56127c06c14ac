package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// The assembler text codec as it stood before FormatProgram and
// ParseProgram were rewritten to append into one buffer and scan without
// per-line or per-operand allocations, kept verbatim (only renamed) as the
// oracle for FuzzParseProgram and TestCodecMatchesReference: the rewrite
// must format the same bytes, accept the same programs and reject the
// rest with the same error text.

// formatInstRef renders one instruction instance.
func formatInstRef(p *Pool, in Inst) string {
	d := in.Def
	var ops []string
	if !d.NoDest {
		ops = append(ops, regPrefix(p.Arch, d.RegFile)+strconv.Itoa(in.Dest))
	}
	for i := 0; i < d.NSrc; i++ {
		ops = append(ops, regPrefix(p.Arch, d.RegFile)+strconv.Itoa(in.Srcs[i]))
	}
	if d.Mem != MemNone {
		ops = append(ops, "[m"+strconv.Itoa(in.Addr)+"]")
	}
	if d.Class == Branch {
		ops = append(ops, "next")
	}
	if len(ops) == 0 {
		return d.Mnemonic
	}
	return d.Mnemonic + " " + strings.Join(ops, ", ")
}

// formatProgramRef renders a full loop: header comment, label, body, closing
// branch.
func formatProgramRef(p *Pool, seq []Inst) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# pool: %s\n", p.Arch)
	b.WriteString("loop:\n")
	for _, in := range seq {
		b.WriteString("\t")
		b.WriteString(formatInstRef(p, in))
		b.WriteString("\n")
	}
	b.WriteString("\t" + loopBranch(p.Arch) + "\n")
	return b.String()
}

// parseProgramRef parses text produced by formatProgramRef (or hand-written in
// the same syntax) back into an instruction sequence.
func parseProgramRef(p *Pool, text string) ([]Inst, error) {
	var seq []Inst
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" || strings.HasSuffix(line, ":") {
			continue
		}
		if line == loopBranch(p.Arch) {
			continue
		}
		in, err := parseInstRef(p, line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
		seq = append(seq, in)
	}
	return seq, nil
}

// parseInstRef parses a single instruction line.
func parseInstRef(p *Pool, line string) (Inst, error) {
	fields := strings.SplitN(line, " ", 2)
	mnemonic := fields[0]
	d, ok := p.DefByMnemonic(mnemonic)
	if !ok {
		return Inst{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	var ops []string
	if len(fields) == 2 {
		for _, op := range strings.Split(fields[1], ",") {
			op = strings.TrimSpace(op)
			if op != "" {
				ops = append(ops, op)
			}
		}
	}
	want := 0
	if !d.NoDest {
		want++
	}
	want += d.NSrc
	if d.Mem != MemNone {
		want++
	}
	if d.Class == Branch {
		want++
	}
	if len(ops) != want {
		return Inst{}, fmt.Errorf("%s: got %d operands, want %d", mnemonic, len(ops), want)
	}
	in := Inst{Def: d}
	idx := 0
	if !d.NoDest {
		r, err := parseRegRef(p, d, ops[idx])
		if err != nil {
			return Inst{}, fmt.Errorf("%s: dest: %w", mnemonic, err)
		}
		in.Dest = r
		idx++
	}
	for i := 0; i < d.NSrc; i++ {
		r, err := parseRegRef(p, d, ops[idx])
		if err != nil {
			return Inst{}, fmt.Errorf("%s: src %d: %w", mnemonic, i, err)
		}
		in.Srcs[i] = r
		idx++
	}
	if d.Mem != MemNone {
		a, err := parseMemSlotRef(p, ops[idx])
		if err != nil {
			return Inst{}, fmt.Errorf("%s: %w", mnemonic, err)
		}
		in.Addr = a
		idx++
	}
	if d.Class == Branch && ops[idx] != "next" {
		return Inst{}, fmt.Errorf("%s: branch target %q, want \"next\"", mnemonic, ops[idx])
	}
	return in, nil
}

func parseRegRef(p *Pool, d *Def, s string) (int, error) {
	prefix := regPrefix(p.Arch, d.RegFile)
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("register %q does not match file prefix %q", s, prefix)
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil {
		return 0, fmt.Errorf("register %q: %v", s, err)
	}
	limit := p.IntRegs
	if d.RegFile == RegVec {
		limit = p.VecRegs
	}
	if n < 0 || n >= limit {
		return 0, fmt.Errorf("register %q out of range [0,%d)", s, limit)
	}
	return n, nil
}

func parseMemSlotRef(p *Pool, s string) (int, error) {
	if !strings.HasPrefix(s, "[m") || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("memory operand %q, want [mN]", s)
	}
	n, err := strconv.Atoi(s[2 : len(s)-1])
	if err != nil {
		return 0, fmt.Errorf("memory operand %q: %v", s, err)
	}
	if n < 0 || n >= p.MemSlots {
		return 0, fmt.Errorf("memory slot %q out of range [0,%d)", s, p.MemSlots)
	}
	return n, nil
}
