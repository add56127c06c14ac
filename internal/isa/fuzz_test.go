package isa

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzParseProgram throws arbitrary text at the assembly parser and holds
// it to the reference codec in asm_ref_test.go: the same instructions or
// the same error text, and anything accepted formats to the reference's
// bytes and survives a format/parse round trip.
func FuzzParseProgram(f *testing.F) {
	pool := ARM64Pool()
	rng := rand.New(rand.NewSource(1))
	f.Add(FormatProgram(pool, pool.RandomSequence(rng, 20)))
	f.Add("loop:\n\tadd x1, x2, x3\n\tb loop\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("add x1 x2 x3")           // missing commas
	f.Add("ldr x1, [m1]\nstr")      // truncated
	f.Add("b next\nb loop\nb next") // branches
	f.Add(strings.Repeat("mov x1, x2\n", 100))
	for _, text := range codecEdgeCases {
		f.Add(text)
	}

	f.Fuzz(func(t *testing.T, text string) {
		requireSameParse(t, pool, text)
	})
}

// FuzzLoadPoolXML throws arbitrary bytes at the XML pool loader: never
// panic, and accepted pools must round-trip through WritePoolXML.
func FuzzLoadPoolXML(f *testing.F) {
	var good strings.Builder
	if err := WritePoolXML(&good, ARM64Pool()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("<pool></pool>")
	f.Add("not xml")
	f.Add(`<pool arch="arm64" int-regs="8" vec-regs="8" mem-slots="4">
		<instruction mnemonic="x" class="int-short" unit="alu" latency="1"/></pool>`)

	f.Fuzz(func(t *testing.T, text string) {
		p, err := LoadPoolXML(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WritePoolXML(&buf, p); err != nil {
			t.Fatalf("accepted pool does not serialize: %v", err)
		}
		back, err := LoadPoolXML(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("serialized pool does not re-load: %v", err)
		}
		if len(back.Defs) != len(p.Defs) || back.Arch != p.Arch {
			t.Fatal("round trip changed the pool")
		}
	})
}
