package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestKeys(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"repro/internal/core.(*Bench).EMMeasureN", "core.Bench.EMMeasureN"},
		{"repro/internal/core.Bench.EMMeasureN", "core.Bench.EMMeasureN"},
		{"repro/internal/core.Bench.EMMeasureN-fm", "core.Bench.EMMeasureN"},
		{"repro/internal/core.(*Bench).EMMeasureN.func2", "core.Bench.EMMeasureN"},
		{"repro/internal/core.NewBench.func1.1", "core.NewBench"},
		{"repro/internal/core.NewBench.deferwrap1", "core.NewBench"},
		{"repro/internal/lab/chaos.(*Proxy).Close", "lab/chaos.Proxy.Close"},
		{"repro/internal/detrand.GridMemoize[go.shape.float64,go.shape.int]", "detrand.GridMemoize"},
		{"repro/internal/fleet.(*sched[go.shape.int]).next", "fleet.sched.next"},
		// A shape whose struct tags hold spaces, escaped quotes and brackets.
		{`repro/internal/fleet.runCampaign[go.shape.struct { VminV float64 "json:\"vmin_v\""; Tag string "x:\"a]b [c\"" }]`, "fleet.runCampaign"},
		{`repro/internal/fleet.(*sched[go.shape.struct { A []int "json:\"a]\"" }]).next.func1`, "fleet.sched.next"},
	} {
		if got := keys(c.sym); !slices.Contains(got, c.want) {
			t.Errorf("keys(%q) = %q, want it to hold %q", c.sym, got, c.want)
		}
	}
	for _, sym := range []string{
		"repro/internal/core.(*Bench).EMMeasureN.argliveinfo", // merged by content
		"repro/internal/core.(*Bench).EMMeasureN.stkobj",
		"repro/internal/core.NewBench.arginfo1",
		"repro/internal/detrand..dict.GridMemoize[go.shape.float64]",
		"repro/internal/core..inittask",
		"type:repro/internal/core.Bench",
		"repro/cmd/repro.main",
		"runtime.throw",
	} {
		if got := keys(sym); len(got) != 0 {
			t.Errorf("keys(%q) = %q, want none", sym, got)
		}
	}
}

func TestReport(t *testing.T) {
	decl := map[string]token.Position{"a.F": {}, "a.G": {}, "a.H": {}}
	reached := map[string]bool{"a.F": true}
	run := func(allow map[string]entry) (string, bool) {
		var out bytes.Buffer
		failed := report(&out, decl, reached, allow, "allow.txt")
		return out.String(), failed
	}
	out, failed := run(map[string]entry{"a.G": {reason: "facade: x"}, "a.H": {reason: "oracle: y"}})
	if failed || out != "allowed a.G facade: x\nallowed a.H oracle: y\n" {
		t.Errorf("all unreached allowed: failed=%v, output\n%s", failed, out)
	}
	out, failed = run(map[string]entry{"a.G": {reason: "facade: x"}})
	if !failed || !strings.Contains(out, "a.H is reached by no program") {
		t.Errorf("unlisted a.H: failed=%v, output\n%s", failed, out)
	}
	// A stale entry fails the run: its function is reached, or gone.
	for key, why := range map[string]string{"a.F": "is reached", "a.Gone": "is not declared"} {
		out, failed = run(map[string]entry{"a.G": {reason: "facade: x"}, "a.H": {reason: "oracle: y"}, key: {reason: "facade: z", line: 9}})
		if !failed || !strings.Contains(out, "allow.txt:9: stale entry: "+key+" "+why) {
			t.Errorf("stale %s: failed=%v, output\n%s", key, failed, out)
		}
	}
}

func TestReadAllow(t *testing.T) {
	dir := t.TempDir()
	write := func(s string) string {
		p := filepath.Join(dir, "allow.txt")
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	got, err := readAllow(write("# comment\n\na.F facade: api.go F\na.T.M interface: io.Reader\n"))
	if err != nil || len(got) != 2 || got["a.F"].reason != "facade: api.go F" || got["a.T.M"].line != 4 {
		t.Fatalf("readAllow = %+v, %v", got, err)
	}
	for _, bad := range []string{"a.F\n", "a.F unused: x\n", "a.F facade:\n", "a.F facade: x\na.F oracle: y\n"} {
		if _, err := readAllow(write(bad)); err == nil {
			t.Errorf("readAllow accepted %q", bad)
		}
	}
}
