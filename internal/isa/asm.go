package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembly text form. Individuals travel between the GA workstation and the
// target machine as text (the paper ships source code over SSH), so every
// sequence can be formatted as a loop body and parsed back losslessly.
//
// The syntax is a simplified, uniform assembler:
//
//	# pool: arm64
//	loop:
//		add x3, x1, x2
//		ldr x5, [m3]
//		str x5, [m2]
//		b next
//		b loop
//
// Operand order is always: destination register (if any), source registers,
// memory slot. The trailing "b loop" / "jmp loop" closes the stress loop
// and is not part of the individual; a "b next" is the paper's dummy
// unconditional branch gene.

// regPrefix returns the register-name prefix for a register file under an
// architecture.
func regPrefix(arch Arch, rf RegFile) string {
	if arch == X86 {
		if rf == RegVec {
			return "xmm"
		}
		return "r"
	}
	if rf == RegVec {
		return "v"
	}
	return "x"
}

// loopBranch returns the instruction text that closes the loop.
func loopBranch(arch Arch) string {
	if arch == X86 {
		return "jmp loop"
	}
	return "b loop"
}

// AppendInst appends one instruction instance's text to dst.
func AppendInst(dst []byte, p *Pool, in Inst) []byte {
	d := in.Def
	dst = append(dst, d.Mnemonic...)
	prefix := regPrefix(p.Arch, d.RegFile)
	k := 0 // operands written so far
	if !d.NoDest {
		dst = appendNumber(append(appendSep(dst, k), prefix...), in.Dest)
		k++
	}
	for i := 0; i < d.NSrc; i++ {
		dst = appendNumber(append(appendSep(dst, k), prefix...), in.Srcs[i])
		k++
	}
	if d.Mem != MemNone {
		dst = append(appendNumber(append(appendSep(dst, k), "[m"...), in.Addr), ']')
		k++
	}
	if d.Class == Branch {
		dst = append(appendSep(dst, k), "next"...)
	}
	return dst
}

// appendSep appends the text before the k-th operand.
func appendSep(dst []byte, k int) []byte {
	if k == 0 {
		return append(dst, ' ')
	}
	return append(dst, ',', ' ')
}

// appendNumber is strconv.AppendInt in base 10, with the one- and
// two-digit operand numbers written directly.
func appendNumber(dst []byte, n int) []byte {
	switch {
	case 0 <= n && n < 10:
		return append(dst, byte('0'+n))
	case 10 <= n && n < 100:
		return append(dst, byte('0'+n/10), byte('0'+n%10))
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// AppendProgram appends a full loop to dst: header comment, label, body,
// closing branch, one line each.
func AppendProgram(dst []byte, p *Pool, seq []Inst) []byte {
	dst = append(dst, "# pool: "...)
	dst = append(dst, p.Arch.String()...)
	dst = append(dst, "\nloop:\n"...)
	for _, in := range seq {
		dst = append(dst, '\t')
		dst = AppendInst(dst, p, in)
		dst = append(dst, '\n')
	}
	dst = append(dst, '\t')
	dst = append(dst, loopBranch(p.Arch)...)
	return append(dst, '\n')
}

// FormatProgram renders a full loop as AppendProgram does. A loop of the
// GA's length formats in a stack buffer, so the returned string is its
// only allocation.
func FormatProgram(p *Pool, seq []Inst) string {
	var buf [4096]byte
	return string(AppendProgram(buf[:0], p, seq))
}

// ParseProgram parses text produced by FormatProgram (or hand-written in
// the same syntax) back into an instruction sequence. It scans the text in
// place: the returned slice, sized on the first instruction from the lines
// left, is its only allocation on success.
func ParseProgram(p *Pool, text string) ([]Inst, error) {
	var seq []Inst
	for lineNo := 1; ; lineNo++ {
		line, rest, more := cutByte(text, '\n')
		text = rest
		// A comment never starts inside the space TrimSpace would cut, so
		// cutting it first and trimming once is the same as trimming, cutting
		// and trimming again.
		if i := indexComment(line); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasSuffix(line, ":") && line != loopBranch(p.Arch) {
			in, err := ParseInst(p, line)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %w", lineNo, err)
			}
			if seq == nil {
				seq = make([]Inst, 0, 1+strings.Count(text, "\n"))
			}
			seq = append(seq, in)
		}
		if !more {
			return seq, nil
		}
	}
}

// cutByte is strings.Cut with a one-byte separator.
func cutByte(s string, sep byte) (before, after string, found bool) {
	if i := strings.IndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// indexComment is strings.IndexAny(line, "#;") without building the
// character set on every call.
func indexComment(line string) int {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' || line[i] == ';' {
			return i
		}
	}
	return -1
}

// maxOperands bounds an instruction's operand list: a destination, two
// sources, a memory slot and a branch target.
const maxOperands = 5

// ParseInst parses a single instruction line.
func ParseInst(p *Pool, line string) (Inst, error) {
	mnemonic, list, _ := cutByte(line, ' ')
	d, ok := p.DefByMnemonic(mnemonic)
	if !ok {
		return Inst{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	// The operands are the comma-separated fields of the rest of the line,
	// trimmed, with empty ones dropped; n counts them all, ops keeps the
	// first maxOperands.
	var ops [maxOperands]string
	n := 0
	for start, i := 0, 0; start < len(list); i++ {
		if i < len(list) && list[i] != ',' {
			continue
		}
		if op := strings.TrimSpace(list[start:i]); op != "" {
			if n < len(ops) {
				ops[n] = op
			}
			n++
		}
		start = i + 1
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
	if n != want {
		return Inst{}, fmt.Errorf("%s: got %d operands, want %d", mnemonic, n, want)
	}
	in := Inst{Def: d}
	idx := 0
	prefix, limit := regPrefix(p.Arch, d.RegFile), p.regCount(d)
	if !d.NoDest {
		r, err := parseReg(prefix, limit, ops[idx])
		if err != nil {
			return Inst{}, fmt.Errorf("%s: dest: %w", mnemonic, err)
		}
		in.Dest = r
		idx++
	}
	for i := 0; i < d.NSrc; i++ {
		r, err := parseReg(prefix, limit, ops[idx])
		if err != nil {
			return Inst{}, fmt.Errorf("%s: src %d: %w", mnemonic, i, err)
		}
		in.Srcs[i] = r
		idx++
	}
	if d.Mem != MemNone {
		a, err := parseMemSlot(p, ops[idx])
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

// parseReg parses a register operand of the file with the given name
// prefix and size.
func parseReg(prefix string, limit int, s string) (int, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("register %q does not match file prefix %q", s, prefix)
	}
	n, err := atoi(s[len(prefix):])
	if err != nil {
		return 0, fmt.Errorf("register %q: %v", s, err)
	}
	if n < 0 || n >= limit {
		return 0, fmt.Errorf("register %q out of range [0,%d)", s, limit)
	}
	return n, nil
}

func parseMemSlot(p *Pool, s string) (int, error) {
	if !strings.HasPrefix(s, "[m") || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("memory operand %q, want [mN]", s)
	}
	n, err := atoi(s[2 : len(s)-1])
	if err != nil {
		return 0, fmt.Errorf("memory operand %q: %v", s, err)
	}
	if n < 0 || n >= p.MemSlots {
		return 0, fmt.Errorf("memory slot %q out of range [0,%d)", s, p.MemSlots)
	}
	return n, nil
}

// atoi is strconv.Atoi with a fast path for the one- and two-digit
// numbers operands carry; anything else, errors included, is
// strconv.Atoi's.
func atoi(s string) (int, error) {
	switch {
	case len(s) == 1 && s[0]-'0' <= 9:
		return int(s[0] - '0'), nil
	case len(s) == 2 && s[0]-'0' <= 9 && s[1]-'0' <= 9:
		return int(s[0]-'0')*10 + int(s[1]-'0'), nil
	}
	return strconv.Atoi(s)
}
