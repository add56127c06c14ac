package circuit

import (
	"strings"
	"testing"
)

func TestWriteSpice(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 1.0)
	c.R("r1", "in", "mid", 1e3)
	c.C("c1", "mid", Ground, 1e-9)
	c.L("l1", "mid", "out", 1e-9)
	c.I("load", "out", Ground, DC(0.5))

	var b strings.Builder
	if err := c.WriteSpice(&b, "test circuit"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"* test circuit",
		"Rr1 in mid 1000",
		"Cc1 mid 0 1e-09",
		"Ll1 mid out 1e-09",
		"Vvs in 0 DC 1",
		"Iload out 0 DC 0.5",
		".end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("netlist missing %q:\n%s", want, out)
		}
	}
	// Default title.
	var b2 strings.Builder
	if err := c.WriteSpice(&b2, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b2.String(), "* netlist") {
		t.Errorf("default title missing: %q", b2.String()[:20])
	}
}
