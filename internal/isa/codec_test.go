package isa

import (
	"math/rand"
	"strings"
	"testing"
)

// codecEdgeCases are programs and lines that probe the parser's corners:
// operand spacing and empty operands, signs and garbage in numbers,
// comments, labels, tabs after the mnemonic and non-ASCII space.
var codecEdgeCases = []string{
	"frobnicate x1, x2",
	"add x1, x2",
	"add r1, r2, r3",
	"add x1, x2, x99",
	"ldr x1, [m99]",
	"ldr x1, (m1)",
	"add xq, x2, x3",
	"b elsewhere",
	"ldr x1, [mzz]",
	"add x1, x2, x3, x4",
	"add x1,,x2,, x3,",
	"add  x1, x2, x3",
	"add\tx1, x2, x3",
	"add x+1, x-0, x3",
	"add x1, x2, x9999999999999999999999",
	"ldr x1, [m-1]",
	"ldr x1, [m]",
	"ldr x1, [m+2]",
	"b",
	"b next, next",
	"\u00a0add x1, x2, x3\u0085",
	"loop:\n\tadd x1, x2, x3 # trailing\n\tb loop ; closing\n",
	"label: add x1, x2, x3",
	"# pool: arm64\nloop:\n\n\n\tbroken\n",
	"\n\n\nadd x1, x2",
	"b loop\nb loop",
	"b loop:",
}

// formatInst renders one instruction as AppendInst writes it.
func formatInst(p *Pool, in Inst) string { return string(AppendInst(nil, p, in)) }

// requireSameParse parses text with ParseProgram and with the reference
// parser and fails unless both return the same instructions or the same
// error text. An accepted program must also format to the reference's
// bytes and parse back to itself.
func requireSameParse(t *testing.T, pool *Pool, text string) {
	t.Helper()
	seq, err := ParseProgram(pool, text)
	want, wantErr := parseProgramRef(pool, text)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ParseProgram(%q) error %v, reference %v", text, err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameInsts(seq, want) {
		t.Fatalf("ParseProgram(%q) = %v, reference %v", text, seq, want)
	}
	out := FormatProgram(pool, seq)
	if ref := formatProgramRef(pool, seq); out != ref {
		t.Fatalf("FormatProgram differs from the reference:\n%q\n%q", out, ref)
	}
	back, err := ParseProgram(pool, out)
	if err != nil {
		t.Fatalf("formatted program does not re-parse: %v\n%s", err, out)
	}
	if !sameInsts(back, seq) {
		t.Fatalf("round trip changed the program:\n%s", out)
	}
}

// sameInsts compares two parse results, nil and empty apart.
func sameInsts(a, b []Inst) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCodecMatchesReference holds the codec to the reference in
// asm_ref_test.go on both built-in pools: every instruction and program
// formats to the same bytes, and the formatted programs, the edge cases
// and random byte-level mutations of both parse to the same instructions
// or fail with the same error text.
func TestCodecMatchesReference(t *testing.T) {
	const alphabet = " ,\t\n#;:[]mxrv+-0123456789bnextloop"
	rng := rand.New(rand.NewSource(27))
	for _, pool := range []*Pool{ARM64Pool(), X86Pool()} {
		for i := range pool.Defs {
			in := pool.randomOperands(rng, &pool.Defs[i])
			if got, want := formatInst(pool, in), formatInstRef(pool, in); got != want {
				t.Fatalf("formatInst = %q, reference %q", got, want)
			}
			text := formatInst(pool, in)
			got, err := ParseInst(pool, text)
			want, wantErr := parseInstRef(pool, text)
			if err != nil || wantErr != nil || got != want {
				t.Fatalf("ParseInst(%q) = %v, %v; reference %v, %v", text, got, err, want, wantErr)
			}
		}
		corpus := append([]string(nil), codecEdgeCases...)
		for _, n := range []int{0, 1, 7, 50, 300} {
			corpus = append(corpus, FormatProgram(pool, pool.RandomSequence(rng, n)))
		}
		for _, text := range corpus {
			requireSameParse(t, pool, text)
			for m := 0; m < 200 && text != ""; m++ {
				b := []byte(text)
				for e := 1 + rng.Intn(3); e > 0; e-- {
					i := rng.Intn(len(b) + 1)
					switch c := alphabet[rng.Intn(len(alphabet))]; rng.Intn(3) {
					case 0:
						b = append(b[:i], append([]byte{c}, b[i:]...)...)
					case 1:
						if i < len(b) {
							b = append(b[:i], b[i+1:]...)
						}
					default:
						if i < len(b) {
							b[i] = c
						}
					}
				}
				requireSameParse(t, pool, string(b))
			}
		}
		for _, line := range strings.Split(strings.Join(codecEdgeCases, "\n"), "\n") {
			_, err := ParseInst(pool, line)
			_, wantErr := parseInstRef(pool, line)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("ParseInst(%q) error %v, reference %v", line, err, wantErr)
			}
		}
	}
}

// BenchmarkFormatParseProgram is one individual's trip through the lab
// wire codec: a 50-instruction Cortex-A72 loop formatted to text and
// parsed back.
func BenchmarkFormatParseProgram(b *testing.B) {
	pool := ARM64Pool()
	seq := pool.RandomSequence(rand.New(rand.NewSource(1)), 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProgram(pool, FormatProgram(pool, seq)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormatParseProgramRef is the same trip through the reference
// codec, so one run compares the two on one host.
func BenchmarkFormatParseProgramRef(b *testing.B) {
	pool := ARM64Pool()
	seq := pool.RandomSequence(rand.New(rand.NewSource(1)), 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseProgramRef(pool, formatProgramRef(pool, seq)); err != nil {
			b.Fatal(err)
		}
	}
}
