package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestArchRoundTrip(t *testing.T) {
	for _, a := range []Arch{ARM64, X86} {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArch("mips"); err == nil {
		t.Error("ParseArch accepted mips")
	}
	if s := Arch(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown arch string %q", s)
	}
}

func TestClassRoundTrip(t *testing.T) {
	for c := Branch; c <= Mem; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass accepted bogus")
	}
}

func TestUnitRoundTrip(t *testing.T) {
	for u := UnitALU; u < Unit(NumUnits); u++ {
		got, err := ParseUnit(u.String())
		if err != nil || got != u {
			t.Errorf("ParseUnit(%q) = %v, %v", u.String(), got, err)
		}
	}
	if _, err := ParseUnit("warp"); err == nil {
		t.Error("ParseUnit accepted warp")
	}
}

func TestDefValidate(t *testing.T) {
	good := Def{Mnemonic: "add", Latency: 1, Block: 1, NSrc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good def rejected: %v", err)
	}
	bad := []Def{
		{Latency: 1, Block: 1},                                       // empty mnemonic
		{Mnemonic: "x", Latency: 0, Block: 1},                        // latency < 1
		{Mnemonic: "x", Latency: 2, Block: 3},                        // block > latency
		{Mnemonic: "x", Latency: 1, Block: 0},                        // block < 1
		{Mnemonic: "x", Latency: 1, Block: 1, Charge: -1},            // negative charge
		{Mnemonic: "x", Latency: 1, Block: 1, NSrc: 3},               // too many sources
		{Mnemonic: "x", Latency: 1, Block: 1, NSrc: -1, Charge: 0.1}, // negative sources
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad def %d accepted", i)
		}
	}
}

func TestBuiltinPools(t *testing.T) {
	for _, p := range []*Pool{ARM64Pool(), X86Pool()} {
		if len(p.Defs) < 15 {
			t.Errorf("%v pool has only %d defs", p.Arch, len(p.Defs))
		}
		// Every class the paper uses must be present.
		classes := make(map[Class]bool)
		for i := range p.Defs {
			classes[p.Defs[i].Class] = true
		}
		want := []Class{IntShort, IntLong, Float, SIMD}
		if p.Arch == ARM64 {
			want = append(want, Mem, Branch)
		} else {
			want = append(want, IntShortMem, IntLongMem)
		}
		for _, c := range want {
			if !classes[c] {
				t.Errorf("%v pool missing class %v", p.Arch, c)
			}
		}
	}
}

func TestPoolForSelectsArch(t *testing.T) {
	if PoolFor(ARM64).Arch != ARM64 {
		t.Error("PoolFor(ARM64) wrong arch")
	}
	if PoolFor(X86).Arch != X86 {
		t.Error("PoolFor(X86) wrong arch")
	}
}

func TestNewPoolRejectsBadInput(t *testing.T) {
	goodDefs := []Def{{Mnemonic: "add", Latency: 1, Block: 1}}
	if _, err := NewPool(ARM64, nil, 8, 8, 4); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool(ARM64, goodDefs, 1, 8, 4); err == nil {
		t.Error("1 int reg accepted")
	}
	if _, err := NewPool(ARM64, goodDefs, 8, 8, 0); err == nil {
		t.Error("0 mem slots accepted")
	}
	dup := []Def{
		{Mnemonic: "add", Latency: 1, Block: 1},
		{Mnemonic: "add", Latency: 1, Block: 1},
	}
	if _, err := NewPool(ARM64, dup, 8, 8, 4); err == nil {
		t.Error("duplicate mnemonic accepted")
	}
	invalid := []Def{{Mnemonic: "bad", Latency: 0, Block: 1}}
	if _, err := NewPool(ARM64, invalid, 8, 8, 4); err == nil {
		t.Error("invalid def accepted")
	}
}

func TestRandomInstOperandsInRange(t *testing.T) {
	p := ARM64Pool()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		in := p.RandomInst(rng)
		limit := p.IntRegs
		if in.Def.RegFile == RegVec {
			limit = p.VecRegs
		}
		if !in.Def.NoDest && (in.Dest < 0 || in.Dest >= limit) {
			t.Fatalf("dest %d out of range for %s", in.Dest, in.Def.Mnemonic)
		}
		for j := 0; j < in.Def.NSrc; j++ {
			if in.Srcs[j] < 0 || in.Srcs[j] >= limit {
				t.Fatalf("src %d out of range for %s", in.Srcs[j], in.Def.Mnemonic)
			}
		}
		if in.Def.Mem != MemNone && (in.Addr < 0 || in.Addr >= p.MemSlots) {
			t.Fatalf("addr %d out of range for %s", in.Addr, in.Def.Mnemonic)
		}
	}
}

func TestRandomSequenceLength(t *testing.T) {
	p := X86Pool()
	seq := p.RandomSequence(rand.New(rand.NewSource(2)), 50)
	if len(seq) != 50 {
		t.Fatalf("sequence length %d", len(seq))
	}
}

func TestMutateOperandStaysInRange(t *testing.T) {
	p := ARM64Pool()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		in := p.RandomInst(rng)
		before := in
		p.MutateOperand(rng, &in)
		if in.Def != before.Def {
			t.Fatal("MutateOperand changed the definition")
		}
		limit := p.IntRegs
		if in.Def.RegFile == RegVec {
			limit = p.VecRegs
		}
		if !in.Def.NoDest && (in.Dest < 0 || in.Dest >= limit) {
			t.Fatalf("mutated dest out of range for %s", in.Def.Mnemonic)
		}
		if in.Def.Mem != MemNone && (in.Addr < 0 || in.Addr >= p.MemSlots) {
			t.Fatalf("mutated addr out of range")
		}
	}
}

func TestMixBreakdown(t *testing.T) {
	p := ARM64Pool()
	add, _ := p.DefByMnemonic("add")
	fmul, _ := p.DefByMnemonic("fmul")
	seq := []Inst{{Def: add}, {Def: add}, {Def: fmul}, {Def: fmul}}
	mix := MixBreakdown(seq)
	if mix[IntShort] != 0.5 || mix[Float] != 0.5 {
		t.Fatalf("MixBreakdown = %v", mix)
	}
	if MixBreakdown(nil) != nil {
		t.Fatal("empty breakdown not nil")
	}
}

func TestFormatParseInstExamples(t *testing.T) {
	pa := ARM64Pool()
	px := X86Pool()
	cases := []struct {
		pool *Pool
		text string
	}{
		{pa, "add x3, x1, x2"},
		{pa, "ldr x5, [m3]"},
		{pa, "str x5, [m2]"},
		{pa, "fmadd v1, v2, v3"},
		{pa, "fsqrt v4, v5"},
		{pa, "b next"},
		{px, "add r3, r1"},
		{px, "mov r2, r9"},
		{px, "addmem r5, [m1]"},
		{px, "movstore r4, [m0]"},
		{px, "movload r6, [m7]"},
		{px, "sqrtps xmm2, xmm3"},
	}
	for _, tc := range cases {
		in, err := ParseInst(tc.pool, tc.text)
		if err != nil {
			t.Errorf("ParseInst(%q): %v", tc.text, err)
			continue
		}
		if got := formatInst(tc.pool, in); got != tc.text {
			t.Errorf("round trip %q -> %q", tc.text, got)
		}
	}
}

func TestParseInstErrors(t *testing.T) {
	p := ARM64Pool()
	cases := []string{
		"frobnicate x1, x2",  // unknown mnemonic
		"add x1, x2",         // operand count
		"add r1, r2, r3",     // wrong prefix
		"add x1, x2, x99",    // register range
		"ldr x1, [m99]",      // mem slot range
		"ldr x1, (m1)",       // mem syntax
		"add xq, x2, x3",     // register number garbage
		"b elsewhere",        // branch target
		"ldr x1, [mzz]",      // mem slot garbage
		"add x1, x2, x3, x4", // too many operands
	}
	for _, text := range cases {
		if _, err := ParseInst(p, text); err == nil {
			t.Errorf("ParseInst(%q) succeeded", text)
		}
	}
}

// Property: FormatProgram/ParseProgram round-trips random sequences on both
// architectures.
func TestProgramRoundTripProperty(t *testing.T) {
	pools := []*Pool{ARM64Pool(), X86Pool()}
	prop := func(seed int64, poolPick bool) bool {
		p := pools[0]
		if poolPick {
			p = pools[1]
		}
		rng := rand.New(rand.NewSource(seed))
		seq := p.RandomSequence(rng, 1+rng.Intn(60))
		text := FormatProgram(p, seq)
		back, err := ParseProgram(p, text)
		if err != nil {
			return false
		}
		if len(back) != len(seq) {
			return false
		}
		for i := range seq {
			if seq[i].Def != back[i].Def || seq[i].Dest != back[i].Dest ||
				seq[i].Srcs != back[i].Srcs || seq[i].Addr != back[i].Addr {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseProgramSkipsCommentsAndLabels(t *testing.T) {
	p := ARM64Pool()
	text := "# pool: arm64\nloop:\n  add x1, x2, x3  ; trailing comment\n\n  b loop\n"
	seq, err := ParseProgram(p, text)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	if len(seq) != 1 || seq[0].Def.Mnemonic != "add" {
		t.Fatalf("seq = %+v", seq)
	}
}

func TestParseProgramReportsLine(t *testing.T) {
	p := ARM64Pool()
	_, err := ParseProgram(p, "loop:\n\tadd x1, x2, x3\n\tbroken\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3 mention", err)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	for _, p := range []*Pool{ARM64Pool(), X86Pool()} {
		var b strings.Builder
		if err := WritePoolXML(&b, p); err != nil {
			t.Fatalf("WritePoolXML: %v", err)
		}
		back, err := LoadPoolXML(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("LoadPoolXML: %v", err)
		}
		if back.Arch != p.Arch || back.IntRegs != p.IntRegs ||
			back.VecRegs != p.VecRegs || back.MemSlots != p.MemSlots {
			t.Fatalf("pool header mismatch: %+v", back)
		}
		if len(back.Defs) != len(p.Defs) {
			t.Fatalf("def count %d vs %d", len(back.Defs), len(p.Defs))
		}
		for i := range p.Defs {
			if p.Defs[i] != back.Defs[i] {
				t.Fatalf("def %d mismatch:\n%+v\n%+v", i, p.Defs[i], back.Defs[i])
			}
		}
	}
}

func TestLoadPoolXMLErrors(t *testing.T) {
	cases := []string{
		"not xml at all <",
		`<pool arch="mips" int-regs="8" vec-regs="8" mem-slots="4"></pool>`,
		`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
			<instruction mnemonic="x" class="nope" unit="alu" latency="1"/></pool>`,
		`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
			<instruction mnemonic="x" class="int-short" unit="nope" latency="1"/></pool>`,
		`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
			<instruction mnemonic="x" class="int-short" unit="alu" latency="1" mem="sideways"/></pool>`,
		`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
			<instruction mnemonic="x" class="int-short" unit="alu" latency="1" regfile="quantum"/></pool>`,
		`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
			<instruction mnemonic="x" class="int-short" unit="alu" latency="0"/></pool>`,
	}
	for i, text := range cases {
		if _, err := LoadPoolXML(strings.NewReader(text)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
