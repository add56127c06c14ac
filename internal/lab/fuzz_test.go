package lab

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/workload"
)

// FuzzDispatch feeds the daemon one request — a command line followed by
// whatever bytes the client sent after it (the program parts of a
// load-carrying verb) — on a fresh session. Invariants: no panic; the
// request yields reply lines that parseReply accepts — exactly one, except
// that MEASURE streams one OK line per part and may end early on one ERR
// line — or a clean close (after QUIT's reply, or with no output for a
// stream that cannot be resynchronized); and a session that got ERR still
// answers INFO.
func FuzzDispatch(f *testing.F) {
	p, err := platform.JunoR2()
	if err != nil {
		f.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		f.Fatal(err)
	}
	b.Samples = 1
	srv, err := NewServer(b)
	if err != nil {
		f.Fatal(err)
	}
	a72, err := p.Domain(platform.DomainA72)
	if err != nil {
		f.Fatal(err)
	}
	probe, err := workload.Probe().Build(a72.Spec.Pool())
	if err != nil {
		f.Fatal(err)
	}
	text := isa.FormatProgram(a72.Spec.Pool(), probe)
	lines := strings.Count(text, "\n")
	part := fmt.Sprintf("cortex-a72 2 2 %d 0\n%s", lines, text)
	phased := fmt.Sprintf("cortex-a72 2 2 %d 2 0 37.5\n%s", lines, text)
	gated := fmt.Sprintf("cortex-a72 1 1 %d 0\n%s", lines, text)
	a53 := fmt.Sprintf("cortex-a53 4 2 %d 0\n%s", lines, text)
	bad := "cortex-a72 2 2 2 0\nbogus line\nnop\n"
	// v9 headers whose powered-core field is wrong: zero, negative, over
	// the total, not an integer, or below the active cores.
	var badPowered []string
	for _, powered := range []string{"0", "-1", "3", "2.5", "1"} {
		badPowered = append(badPowered, fmt.Sprintf("cortex-a72 %s 2 %d 0\n%s", powered, lines, text))
	}

	seeds := []struct{ line, body string }{
		{"HELLO 9", ""},
		{"HELLO 8", ""},
		{"HELLO", ""},
		{"INFO", ""},
		{"CAPS cortex-a72", ""},
		{"CAPS", ""},
		{"MEASURE 1 1", part},
		{"MEASURE 1 1", phased},
		{"MEASURE 1 1", gated},
		{"MEASURE 1 3", part + phased + part},
		{"MEASURE 1 2", part + gated},
		{"MEASURE 1", part},
		{"MEASURE", part},
		{"MEASURE NaN 1", part},
		{"MEASURE 1 1", bad},
		{"MEASURE 1 1", "nope 2 2 1 0\nadd x1, x2, x3\n"},
		{"MEASURE 1 1", "cortex-a72 2 2 -1 0\n"},
		{"MEASURE 1 1", "cortex-a72 2 2 0\nnop\n"}, // a v8 header: its line count is read from the phase field
		{"MEASURE 1 1", ""},
		{"MEASURE 1 0", ""},
		{"MEASURE 1 0", part},
		{fmt.Sprintf("MEASURE 1 %d", MaxMeasureParts+1), part},
		{"MEASURE 1 2", part + a53},
		{"MEASURE 1 3", part + part + part[:len(part)/2]},
		{"MEASURE 1 3", part + part + "cortex-a72 2 2\n"},
		{"MEASURE 1 3", part + bad + part},
		{"VMEASURE droop 1 1", part},
		{"VMEASURE droop 1 1", gated},
		{"VMEASURE em 1 1", part},
		{"VMEASURE ptp Inf 1", part},
		{"VMEASURE droop 1 1", phased},
		{"SWEEP cortex-a72 2 2 1 6e8", ""},
		{"SWEEP cortex-a72 1 1 1 6e8", ""},
		{"SWEEP cortex-a72 2 2 1 1.2e9 2e7", ""},
		{"SWEEP cortex-a72 2 2 1 NaN", ""},
		{"SWEEP cortex-a72 2 2 1 -Inf", ""},
		{"SWEEP cortex-a72 2 2 1", ""},
		{"SWEEP cortex-a72 0 2 1 6e8", ""},
		{"SWEEP cortex-a72 3 2 1 6e8", ""},
		{"SWEEP cortex-a72 1 2 1 6e8", ""},
		{"SWEEP cortex-a72 2 1 6e8", ""}, // a v8 SWEEP
		{"VMIN 1 1", part},
		{"VMIN 1 1", gated},
		{"VMIN 1 1", phased},
		{"VMIN 1 NaN", part},
		{"VMIN 1 1", "cortex-a72 2 99 1 0\nnop\n"},
		{"SHMOO 1 1.2e9", part},
		{"SHMOO 1 NaN", part},
		{"SHMOO 1 1.2e9", "cortex-a72 2 2 1 1 5\nnop\n"},
		{"MONITOR 1", part},
		{"MONITOR 1", gated},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 2 %d 2 10 NaN\n%s", lines, text)},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 2 %d 2 -5 1e300\n%s", lines, text)},
		{"MONITOR 1", "cortex-a72 2 2\n"},
		{"MONITOR 2", "cortex-a72 2 2 1 0\nnop\n"},
		{"MONITOR", part},
		{"MONITOR 17", part},
		{"MONITOR 0", ""},
		{"STATE cortex-a53", ""},
		{"SETCLOCK cortex-a72 6e8", ""},
		{"SETVOLTS cortex-a72 0.95", ""},
		{"SETCORES cortex-a53 2", ""},
		{"RESET cortex-a72", ""},
		{"STATS cortex-a72", ""},
		{"QUIT", ""},
		{"", ""},
		{"\x00\x15", ""},
		{fmt.Sprintf("LOAD cortex-a72 2 %d", lines), text},
		{"RUN", ""},
	}
	for _, hdr := range badPowered {
		seeds = append(seeds,
			struct{ line, body string }{"MEASURE 1 1", hdr},
			struct{ line, body string }{"VMIN 1 1", hdr},
			struct{ line, body string }{"MONITOR 1", hdr})
	}
	for _, seed := range seeds {
		f.Add(seed.line, seed.body)
	}

	f.Fuzz(func(t *testing.T, line, body string) {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		r := bufio.NewReader(strings.NewReader(line + "\n" + body))
		more := srv.serveOne(r, w)

		reply := out.String()
		if reply == "" {
			if more {
				t.Fatalf("%q: session continues without a reply", line)
			}
			return
		}
		if !strings.HasSuffix(reply, "\n") {
			t.Fatalf("%q: reply does not end its line: %q", line, reply)
		}
		replies := strings.Split(strings.TrimSuffix(reply, "\n"), "\n")
		first, _, _ := strings.Cut(line, "\n")
		request := strings.Fields(first)
		measure := len(request) == 3 && request[0] == "MEASURE"
		if len(replies) > 1 && (!measure || len(replies) > atoiOr(request[2], 1)) {
			t.Fatalf("%q: %d reply lines: %q", line, len(replies), reply)
		}
		var ok bool
		for i, r := range replies {
			var err error
			if ok, _, err = parseReply(r); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if !ok && i < len(replies)-1 {
				t.Fatalf("%q: reply goes on after ERR: %q", line, reply)
			}
		}
		if ok && measure && len(replies) != atoiOr(request[2], -1) {
			t.Fatalf("%q: %d OK lines for %s parts", line, len(replies), request[2])
		}
		if !more {
			if reply != "OK bye\n" {
				t.Fatalf("%q: session closed after reply %q", line, reply)
			}
			return
		}
		if ok {
			return
		}
		out.Reset()
		if !srv.serveOne(bufio.NewReader(strings.NewReader("INFO\n")), w) ||
			!strings.HasPrefix(out.String(), "OK "+p.Name+" ") {
			t.Fatalf("%q: session stopped answering INFO after ERR: %q", line, out.String())
		}
	})
}

// atoiOr is strconv.Atoi with a fallback for text that is not a number.
func atoiOr(s string, fallback int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return fallback
}
