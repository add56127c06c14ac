package lab

import (
	"bufio"
	"bytes"
	"fmt"
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
// request yields exactly one reply line that parseReply accepts, or a
// clean close (after QUIT's reply, or with no output for a stream that
// cannot be resynchronized); and a session that got ERR still answers
// INFO.
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
	part := fmt.Sprintf("cortex-a72 2 %d 0\n%s", lines, text)
	phased := fmt.Sprintf("cortex-a72 2 %d 2 0 37.5\n%s", lines, text)

	for _, seed := range []struct{ line, body string }{
		{"HELLO 6", ""},
		{"HELLO 5", ""},
		{"HELLO", ""},
		{"INFO", ""},
		{"CAPS cortex-a72", ""},
		{"CAPS", ""},
		{"STATE cortex-a53", ""},
		{"MEASURE 1", part},
		{"MEASURE 1", phased},
		{"MEASURE", part},
		{"MEASURE NaN", part},
		{"MEASURE 1", "cortex-a72 2 2 0\nbogus line\nnop\n"},
		{"MEASURE 1", "nope 2 1 0\nadd x1, x2, x3\n"},
		{"MEASURE 1", "cortex-a72 2 -1 0\n"},
		{"MEASURE 1", ""},
		{"VMEASURE droop 1 1", part},
		{"VMEASURE em 1 1", part},
		{"VMEASURE ptp Inf 1", part},
		{"VMEASURE droop 1 1", phased},
		{"SWEEP cortex-a72 2 1 6e8", ""},
		{"SWEEP cortex-a72 2 1 1.2e9 2e7", ""},
		{"SWEEP cortex-a72 2 1 NaN", ""},
		{"SWEEP cortex-a72 2 1 -Inf", ""},
		{"SWEEP cortex-a72 2 1", ""},
		{"VMIN 1 1", part},
		{"VMIN 1 1", phased},
		{"VMIN 1 NaN", part},
		{"VMIN 1 1", "cortex-a72 99 1 0\nnop\n"},
		{"SHMOO 1 1.2e9", part},
		{"SHMOO 1 NaN", part},
		{"SHMOO 1 1.2e9", "cortex-a72 2 1 1 5\nnop\n"},
		{"MONITOR 1", part},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 %d 2 10 NaN\n%s", lines, text)},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 %d 2 -5 1e300\n%s", lines, text)},
		{"MONITOR 1", "cortex-a72 2\n"},
		{"MONITOR 2", "cortex-a72 2 1 0\nnop\n"},
		{"SETCLOCK cortex-a72 6e8", ""},
		{"SETCLOCK cortex-a72 NaN", ""},
		{"SETVOLTS cortex-a72 Inf", ""},
		{"SETVOLTS cortex-a72 0.95", ""},
		{"SETCORES cortex-a53 2", ""},
		{"RESET cortex-a72", ""},
		{"STATS cortex-a72", ""},
		{"QUIT", ""},
		{"", ""},
		{"\x00\x15", ""},
		{fmt.Sprintf("LOAD cortex-a72 2 %d", lines), text},
		{"RUN", ""},
	} {
		f.Add(seed.line, seed.body)
	}

	f.Fuzz(func(t *testing.T, line, body string) {
		defer func() {
			for _, d := range p.Domains() {
				d.Reset()
			}
		}()
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
		if strings.Count(reply, "\n") != 1 || !strings.HasSuffix(reply, "\n") {
			t.Fatalf("%q: reply is not exactly one line: %q", line, reply)
		}
		ok, _, err := parseReply(strings.TrimSuffix(reply, "\n"))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
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
