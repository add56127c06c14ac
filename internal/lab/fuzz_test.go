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
// whatever bytes the client sent after it (a LOAD or MONITOR body) — on a
// fresh session, optionally one that already has the probe loop loaded
// and running. Invariants: no panic; the request yields exactly one reply
// line that parseReply accepts, or a clean close (after QUIT's reply, or
// with no output for a stream that cannot be resynchronized); and a
// session that got ERR still answers INFO.
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

	for _, seed := range []struct {
		line, body string
		running    bool
	}{
		{"HELLO 4", "", false},
		{"HELLO 3", "", false},
		{"HELLO", "", false},
		{"INFO", "", false},
		{"CAPS cortex-a72", "", false},
		{"CAPS", "", false},
		{"STATE cortex-a53", "", false},
		{fmt.Sprintf("LOAD cortex-a72 2 %d", lines), text, false},
		{"LOAD cortex-a72 2 2", "bogus line\nnop\n", false},
		{"LOAD nope 2 1", "add x1, x2, x3\n", false},
		{"LOAD cortex-a72 2 -1", "", false},
		{"RUN", "", true},
		{"RUN", "", false},
		{"STOP", "", true},
		{"MEASURE 1", "", true},
		{"MEASURE", "", false},
		{"MEASURE NaN", "", true},
		{"VMEASURE droop 1 1", "", true},
		{"VMEASURE em 1 1", "", true},
		{"VMEASURE ptp Inf 1", "", true},
		{"SWEEP cortex-a72 2 1 6e8", "", false},
		{"SWEEP cortex-a72 2 1 1.2e9 2e7", "", false},
		{"SWEEP cortex-a72 2 1 NaN", "", false},
		{"SWEEP cortex-a72 2 1 -Inf", "", false},
		{"SWEEP cortex-a72 2 1", "", false},
		{"VMIN 1 1", "", true},
		{"VMIN 1 1", "", false},
		{"VMIN 1 NaN", "", true},
		{"SHMOO 1 1.2e9", "", true},
		{"SHMOO 1 NaN", "", true},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 %d 0\n%s", lines, text), false},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 %d 2 10 NaN\n%s", lines, text), false},
		{"MONITOR 1", fmt.Sprintf("cortex-a72 2 %d 2 -5 1e300\n%s", lines, text), false},
		{"MONITOR 1", "cortex-a72 2\n", false},
		{"MONITOR 2", "cortex-a72 2 1 0\nnop\n", false},
		{"SETCLOCK cortex-a72 6e8", "", false},
		{"SETCLOCK cortex-a72 NaN", "", false},
		{"SETVOLTS cortex-a72 Inf", "", false},
		{"SETVOLTS cortex-a72 0.95", "", false},
		{"SETCORES cortex-a53 2", "", false},
		{"RESET cortex-a72", "", false},
		{"STATS cortex-a72", "", false},
		{"QUIT", "", false},
		{"", "", false},
		{"\x00\x15", "", false},
	} {
		f.Add(seed.line, seed.body, seed.running)
	}

	f.Fuzz(func(t *testing.T, line, body string, running bool) {
		defer func() {
			for _, d := range p.Domains() {
				d.Reset()
			}
		}()
		sess := &session{}
		if running {
			sess.current = &loaded{domain: a72, load: platform.Load{Seq: probe, ActiveCores: 2}}
			sess.running = true
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		r := bufio.NewReader(strings.NewReader(line + "\n" + body))
		more := srv.serveOne(sess, r, w)

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
		if !srv.serveOne(sess, bufio.NewReader(strings.NewReader("INFO\n")), w) ||
			!strings.HasPrefix(out.String(), "OK "+p.Name+" ") {
			t.Fatalf("%q: session stopped answering INFO after ERR: %q", line, out.String())
		}
	})
}
