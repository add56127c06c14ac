package lab

import (
	"bufio"
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
// reply and leave the session usable. TestV2ProtocolErrors covers the
// verbs the multi-domain protocol added.
func TestDispatchMalformed(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)
	cases := []string{
		// unknown / empty-ish
		"FROBNICATE",
		"   ",
		// LOAD: truncated fields, bad types, out-of-range args
		"LOAD",
		"LOAD cortex-a72",
		"LOAD cortex-a72 2",
		"LOAD cortex-a72 2 3 extra",
		"LOAD cortex-a72 2 -5",
		"LOAD cortex-a72 2 0",
		"LOAD cortex-a72 2 10001",
		"LOAD cortex-a72 2 nope",
		// MEASURE: out-of-range and non-numeric sample counts
		"MEASURE 0",
		"MEASURE -3",
		"MEASURE 1001",
		"MEASURE many",
		// VMIN: truncated, out-of-range and non-numeric seed/repeats
		"VMIN",
		"VMIN 1",
		"VMIN 1 0",
		"VMIN 1 -1",
		"VMIN 1 101",
		"VMIN x 1",
		"VMIN 1 x",
		"VMIN 1 3", // nothing loaded
		// SWEEP: truncated, non-numeric, out-of-range and non-finite
		"SWEEP",
		"SWEEP cortex-a72",
		"SWEEP cortex-a72 2",
		"SWEEP cortex-a72 2 3",
		"SWEEP cortex-a72 two 3 6e8",
		"SWEEP nope 2 3 6e8",
		"SWEEP cortex-a72 2 0 6e8",
		"SWEEP cortex-a72 2 1001 6e8",
		"SWEEP cortex-a72 2 3 fast",
		"SWEEP cortex-a72 2 3 6e8 NaN",
		"SWEEP cortex-a72 2 3 +Inf",
		"SWEEP cortex-a72 2 3 2e9",
		"SWEEP cortex-a72 0 3 6e8",
		// SET* / RESET: truncated, non-numeric and non-finite
		"SETCLOCK x",
		"SETCLOCK cortex-a72 fast",
		"SETCLOCK cortex-a72 NaN",
		"SETVOLTS cortex-a72",
		"SETVOLTS cortex-a72 Inf",
		"SETCORES a b",
		"RESET",
		"RESET nope",
		"RUN", // nothing loaded in this session
	}
	for _, cmd := range cases {
		if reply := rc.send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	// LOAD headers with a sane declared line count but invalid
	// domain/cores: per the wire contract the body is flushed with the
	// header, and the server must drain it (the desync satellite fix).
	loadCases := []struct {
		header string
		lines  int
	}{
		{"LOAD cortex-a72 two 3", 3},
		{"LOAD cortex-a72 0 1", 1},
		{"LOAD cortex-a72 99 1", 1},
		{"LOAD nope 2 2", 2},
	}
	for _, lc := range loadCases {
		body := strings.Repeat("bogus body line\n", lc.lines)
		if err := writeLine(rc.w, "%s\n%s", lc.header, strings.TrimSuffix(body, "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := readLine(rc.r)
		if err != nil {
			t.Fatalf("%q: %v", lc.header, err)
		}
		if !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", lc.header, reply)
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

// An oversized command line cannot be resynchronized, so the server must
// drop the connection rather than buffer without bound.
func TestOversizedLineClosesConnection(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)
	if _, err := rc.w.WriteString(strings.Repeat("x", maxLineLen+100) + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := rc.w.Flush(); err != nil {
		return // server already hung up mid-write: also acceptable
	}
	if _, err := readLine(rc.r); err == nil {
		t.Fatal("server replied to an oversized line instead of closing")
	}
}

// TestVerbSet pins the protocol's verbs: each one, sent bare, reaches its
// handler (a usage or state error, or a reply) rather than the unknown
// command branch.
func TestVerbSet(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)
	for _, verb := range []string{
		"HELLO", "INFO", "CAPS", "STATE", "LOAD", "RUN", "STOP", "MEASURE",
		"VMEASURE", "SWEEP", "VMIN", "SHMOO", "MONITOR", "SETCLOCK",
		"SETVOLTS", "SETCORES", "RESET", "STATS",
	} {
		if reply := rc.send(verb); strings.Contains(reply, "unknown command") {
			t.Errorf("%s -> %q", verb, reply)
		}
	}
	if reply := rc.send("QUIT"); reply != "OK bye" {
		t.Errorf("QUIT -> %q", reply)
	}
}
