package lab

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

func TestParseReplyTable(t *testing.T) {
	cases := []struct {
		line    string
		ok      bool
		payload string
		wantErr bool
	}{
		{"OK", true, "", false},
		{"OK payload words", true, "payload words", false},
		{"OK ", true, "", false},
		{"ERR something broke", false, "something broke", false},
		{"ERR", false, "unspecified error", false},
		{"", false, "", true},
		{"ok lowercase", false, "", true},
		{"OKAY", false, "", true},
		{"ERRATIC", false, "", true},
		{"\x15OK 1 2 3", false, "", true}, // chaos-garbled line
		{"garbage", false, "", true},
		{" OK", false, "", true},
	}
	for _, c := range cases {
		ok, payload, err := parseReply(c.line)
		if (err != nil) != c.wantErr {
			t.Errorf("parseReply(%q) err = %v, wantErr %v", c.line, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if ok != c.ok || payload != c.payload {
			t.Errorf("parseReply(%q) = (%v, %q), want (%v, %q)",
				c.line, ok, payload, c.ok, c.payload)
		}
	}
}

func FuzzParseReply(f *testing.F) {
	for _, seed := range []string{"OK", "OK 1 2", "ERR nope", "", "OKOK", "\x00\x15OK"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ok, payload, err := parseReply(line)
		if err != nil {
			if ok || payload != "" {
				t.Fatalf("parseReply(%q): non-zero results alongside error", line)
			}
			return
		}
		// A successful parse must come from a well-formed line.
		if !strings.HasPrefix(line, replyOK) && !strings.HasPrefix(line, replyErr) {
			t.Fatalf("parseReply(%q) accepted a line without a reply code", line)
		}
	})
}

func TestFieldHelpers(t *testing.T) {
	fields := strings.Fields("12 3.5 x")
	if v, err := intField(fields, 0, "a"); err != nil || v != 12 {
		t.Fatalf("intField = %v, %v", v, err)
	}
	if _, err := intField(fields, 1, "a"); err == nil {
		t.Fatal("intField accepted a float")
	}
	if _, err := intField(fields, 5, "a"); err == nil {
		t.Fatal("intField accepted a missing index")
	}
	if v, err := floatField(fields, 1, "b"); err != nil || v != 3.5 {
		t.Fatalf("floatField = %v, %v", v, err)
	}
	if _, err := floatField(fields, 2, "b"); err == nil {
		t.Fatal("floatField accepted a non-number")
	}
	if _, err := floatField(nil, 0, "b"); err == nil {
		t.Fatal("floatField accepted empty fields")
	}
}

func TestReadLineCapsLength(t *testing.T) {
	huge := strings.Repeat("a", maxLineLen+10) + "\n"
	r := bufio.NewReader(strings.NewReader(huge))
	if _, err := readLine(r); err == nil {
		t.Fatal("oversized line accepted")
	}
	okLine := strings.Repeat("b", 1000) + "\n"
	r = bufio.NewReader(strings.NewReader(okLine))
	got, err := readLine(r)
	if err != nil || len(got) != 1000 {
		t.Fatalf("normal long line: %d bytes, err %v", len(got), err)
	}
}

// rawConn is a test helper speaking the wire protocol directly, bypassing
// the client's retry machinery.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

func (rc *rawConn) send(line string) string {
	rc.t.Helper()
	if err := writeLine(rc.w, "%s", line); err != nil {
		rc.t.Fatal(err)
	}
	reply, err := readLine(rc.r)
	if err != nil {
		rc.t.Fatalf("reading reply to %q: %v", line, err)
	}
	return reply
}

// TestDispatchMalformed drives the single-domain verbs with truncated,
// non-numeric and out-of-range arguments; every one must produce an ERR
// reply and leave the session usable. The load-carrying verbs get a
// well-formed part after each bad request line, as a client sends it.
// TestV2ProtocolErrors covers the verbs the multi-domain protocol added.
func TestDispatchMalformed(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)
	cases := []string{
		// unknown / empty-ish
		"FROBNICATE",
		"   ",
		// the deleted session, setpoint and state verbs
		"LOAD cortex-a72 2 1",
		"RUN",
		"STOP",
		"SETCLOCK cortex-a72 6e8",
		"SETVOLTS cortex-a72 0.95",
		"STATE cortex-a72",
		"SETCORES cortex-a72 1",
		"RESET cortex-a72",
		// SWEEP: truncated, non-numeric, out-of-range and non-finite
		"SWEEP",
		"SWEEP cortex-a72",
		"SWEEP cortex-a72 2",
		"SWEEP cortex-a72 2 2",
		"SWEEP cortex-a72 2 3 6e8", // a v8 SWEEP: powered 2, 3 active
		"SWEEP cortex-a72 2 two 3 6e8",
		"SWEEP cortex-a72 two 2 3 6e8",
		"SWEEP nope 2 2 3 6e8",
		"SWEEP cortex-a72 2 2 0 6e8",
		"SWEEP cortex-a72 2 2 1001 6e8",
		"SWEEP cortex-a72 2 2 3 fast",
		"SWEEP cortex-a72 2 2 3 6e8 NaN",
		"SWEEP cortex-a72 2 2 3 +Inf",
		"SWEEP cortex-a72 2 2 3 2e9",
		"SWEEP cortex-a72 2 0 3 6e8",
		"SWEEP cortex-a72 0 1 3 6e8",
		"SWEEP cortex-a72 3 2 3 6e8",
	}
	for _, cmd := range cases {
		if reply := rc.send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	_, dd := directBench(t)
	p, _ := probePart(t, dd)
	part := strings.TrimSuffix(partBody(p), "\n")
	for _, req := range []string{
		// MEASURE: out-of-range and non-numeric sample counts
		"MEASURE 0 1",
		"MEASURE -3 1",
		"MEASURE 1001 1",
		"MEASURE many 1",
		// VMIN: truncated, out-of-range and non-numeric seed/repeats
		"VMIN",
		"VMIN 1",
		"VMIN 1 0",
		"VMIN 1 -1",
		"VMIN 1 101",
		"VMIN x 1",
		"VMIN 1 x",
	} {
		if reply := rc.send(req + "\n" + part); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q + part -> %q, want ERR", req, reply)
		}
	}
	// Part headers whose line count is sane but whose domain, cores,
	// powered cores or phases are not: the body must still be drained.
	body := strings.TrimSuffix(strings.SplitN(partBody(p), "\n", 2)[1], "\n")
	lines := strings.Count(body, "\n") + 1
	for _, hdr := range []string{
		fmt.Sprintf("cortex-a72 2 two %d 0", lines),
		fmt.Sprintf("cortex-a72 2 0 %d 0", lines),
		fmt.Sprintf("cortex-a72 2 99 %d 0", lines),
		fmt.Sprintf("cortex-a72 two 2 %d 0", lines),
		fmt.Sprintf("nope 2 2 %d 0", lines),
		fmt.Sprintf("cortex-a72 2 2 %d 1 5", lines),
		fmt.Sprintf("cortex-a72 2 2 %d 2 0 x", lines),
	} {
		if reply := rc.send("MEASURE 3 1\n" + hdr + "\n" + body); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("MEASURE 3 1 + %q -> %q, want ERR", hdr, reply)
		}
	}
	// The session survives all of it.
	if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK juno") {
		t.Errorf("INFO after malformed batch -> %q", reply)
	}
	if reply := rc.send("QUIT"); !strings.HasPrefix(reply, "OK") {
		t.Errorf("QUIT -> %q", reply)
	}
}

// TestOversizedLineClosesConnection: a stream that cannot be
// resynchronized — an oversized line, a part header whose line count (its
// fourth field) cannot be read, or a MEASURE whose part count is missing
// or out of range, so nothing tells where the request ends — must close
// the connection rather than buffer without bound or dispatch program
// lines as commands.
func TestOversizedLineClosesConnection(t *testing.T) {
	addr, _ := startServer(t)
	for _, req := range []string{
		strings.Repeat("x", maxLineLen+100),
		"MEASURE 3 1\ncortex-a72 2 2 many 0\nnop",
		"MEASURE 3 1\ncortex-a72 2 1 0\nnop", // a v8 header: no line count at the fourth field
		"MEASURE 3\ncortex-a72 2 2 1 0\nnop",
		"MEASURE 3 many\ncortex-a72 2 2 1 0\nnop",
		"MEASURE 3 -1\ncortex-a72 2 2 1 0\nnop",
		fmt.Sprintf("MEASURE 3 %d\ncortex-a72 2 2 1 0\nnop", MaxMeasureParts+1),
		"VMIN 1 2\ncortex-a72 2 2 0 0\nnop",
		"MONITOR 2\ncortex-a72 2 2 1 0\nnop\ncortex-a53 4 2\nnop",
	} {
		rc := rawDial(t, addr)
		if _, err := rc.w.WriteString(req + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := rc.w.Flush(); err != nil {
			continue // server already hung up mid-write: also acceptable
		}
		if reply, err := readLine(rc.r); err == nil {
			t.Errorf("%.40q: server replied %q instead of closing", req, reply)
		}
	}
}

// TestVerbSet pins the protocol's verbs: each one, sent bare (MEASURE
// with a zero sample count and one part, MONITOR with zero parts, the
// single-part verbs followed by their part), reaches its handler (a usage
// error or a reply) rather than the unknown command branch, and the
// deleted session, setpoint and state verbs do not.
// TestMonitorPartCountClosesSession: a MONITOR whose part count is
// missing, unreadable or over the cap cannot tell where its parts end, so
// the daemon closes the session without a reply, as it does for MEASURE.
// Answering ERR and reading on would dispatch the part that follows as
// commands: the next INFO used to read `ERR unknown command "cortex-a72"`.
// MONITOR 0 reads no parts and stays an in-sync ERR.
func TestMonitorPartCountClosesSession(t *testing.T) {
	addr, _ := startServer(t)
	_, dd := directBench(t)
	p, _ := probePart(t, dd)
	part := strings.TrimSuffix(partBody(p), "\n")
	for _, line := range []string{"MONITOR", "MONITOR 17", "MONITOR many", "MONITOR -1", "MONITOR 1 2"} {
		rc := rawDial(t, addr)
		if err := writeLine(rc.w, "%s\n%s\nINFO", line, part); err != nil {
			t.Fatal(err)
		}
		if reply, err := readLine(rc.r); err == nil {
			t.Errorf("%s + one part: reply %q, want the session closed", line, reply)
		}
	}
	rc := rawDial(t, addr)
	if reply := rc.send("MONITOR 0"); !strings.HasPrefix(reply, "ERR part count 0") {
		t.Errorf("MONITOR 0 -> %q, want ERR", reply)
	}
	if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK juno") {
		t.Errorf("session desynced after MONITOR 0: INFO -> %q", reply)
	}
}

func TestVerbSet(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)
	_, dd := directBench(t)
	p, _ := probePart(t, dd)
	part := strings.TrimSuffix(partBody(p), "\n")
	for _, verb := range []string{
		"HELLO", "INFO", "CAPS", "MEASURE", "VMEASURE", "SWEEP",
		"VMIN", "SHMOO", "MONITOR", "STATS",
	} {
		req := verb
		switch verb {
		case "MEASURE":
			req += " 0 1\n" + part
		case "VMEASURE", "VMIN", "SHMOO":
			req += "\n" + part
		case "MONITOR":
			req += " 0"
		}
		if reply := rc.send(req); strings.Contains(reply, "unknown command") {
			t.Errorf("%s -> %q", verb, reply)
		}
	}
	for _, verb := range []string{"LOAD", "RUN", "STOP", "SETCLOCK", "SETVOLTS", "STATE", "SETCORES", "RESET"} {
		if reply := rc.send(verb); !strings.Contains(reply, "unknown command") {
			t.Errorf("deleted verb %s -> %q, want unknown command", verb, reply)
		}
	}
	if reply := rc.send("QUIT"); reply != "OK bye" {
		t.Errorf("QUIT -> %q", reply)
	}
}
