package lab

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/lab/chaos"
	"repro/internal/platform"
	"repro/internal/workload"
)

// fastOpts is a resilience envelope tuned for tests: short deadlines,
// aggressive retry, minimal backoff.
func fastOpts() Options {
	return Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   500 * time.Millisecond,
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// identityOpts is fastOpts with the lab's default I/O deadline (a zero
// IOTimeout), for bit-identity checks over a healthy loopback: a verb that
// runs a whole campaign before replying can outlast 500 ms under -race, and
// a timeout there is a spurious failure, not a resilience check. Chaos and
// deadline tests keep fastOpts.
func identityOpts() Options {
	o := fastOpts()
	o.IOTimeout = 0
	return o
}

// directBench builds an independent bench identical to startServer's, for
// computing the exact measurement a remote client must observe (the
// instruments are content-deterministic).
func directBench(t *testing.T) (*core.Bench, *platform.Domain) {
	t.Helper()
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Samples = 3
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

// TestLoadDesyncRegression: every load-carrying request is followed by
// its program parts, flushed together with the request line, and the
// daemon must consume them in full before it rejects anything — otherwise
// it dispatches assembly as commands and every later reply is off by the
// body length. Each row is rejected for a bad request field or a bad part;
// the reply must be ERR naming the fault, and the very next INFO must
// round-trip.
func TestLoadDesyncRegression(t *testing.T) {
	addr, _ := startServer(t)
	_, dd := directBench(t)
	pool := dd.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	good := partBody(Part{Domain: platform.DomainA72, Powered: 2, Cores: 2, Pool: pool, Seq: seq})
	if strings.Count(good, "\n") < 3 {
		t.Fatalf("probe part has too few lines to show a desync: %q", good)
	}
	unknownDomain := partBody(Part{Domain: "no-such-domain", Powered: 2, Cores: 2, Pool: pool, Seq: seq})
	tooManyCores := partBody(Part{Domain: platform.DomainA72, Powered: 2, Cores: 99, Pool: pool, Seq: seq})
	badProgram := "cortex-a72 2 2 3 0\nADD R1, R2\nMUL R3, R4\nADD R5, R6\n"
	for _, tc := range []struct {
		request, body, want string
	}{
		{"MEASURE 0 1", good, "sample count"},
		{"MEASURE 3 1", unknownDomain, "no domain"},
		{"MEASURE 3 2", good + unknownDomain, "part 2: "},
		{"MEASURE 3 2", good + badProgram, "part 2: "},
		{"VMEASURE em 3 1", good, "unknown metric"},
		{"VMEASURE droop 3 1", tooManyCores, "core count"},
		{"VMIN 1 0", good, "repeat count"},
		{"VMIN 1 2", badProgram, "ADD"},
		{"SHMOO 1 fast", good, "bad clock"},
		{"SHMOO 1 1.2e9", unknownDomain, "no domain"},
		{"MONITOR 1", unknownDomain, "no domain"},
		{"MONITOR 2", good + tooManyCores, "core count"},
		{"MONITOR 2", badProgram + good, "ADD"},
	} {
		rc := rawDial(t, addr)
		if err := writeLine(rc.w, "%s\n%s", tc.request, strings.TrimSuffix(tc.body, "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := readLine(rc.r)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, tc.want) {
			t.Errorf("%s: reply %q, want ERR naming %q", tc.request, reply, tc.want)
		}
		if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK juno") {
			t.Errorf("%s: session desynced after the rejection: INFO -> %q", tc.request, reply)
		}
	}
}

// TestMeasureStreamDeadline: a multi-part MEASURE streams one reply line
// per part and the client re-arms its I/O deadline for each, so a batch
// may take far longer than the deadline as long as every line comes in
// time. The proxy holds each reply line back for a third of the deadline;
// one deadline for the whole reply would expire by the fourth line.
func TestMeasureStreamDeadline(t *testing.T) {
	addr, _ := startServer(t)
	opts := fastOpts()
	proxy, err := chaos.New(addr, chaos.Config{Seed: 1, DelayRate: 1, Delay: opts.IOTimeout / 3})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	opts.MaxAttempts = 1
	c, err := DialOptions(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, dd := directBench(t)
	parts, loads := randomParts(dd, 6, 8)
	start := time.Now()
	got, err := c.Measure(parts, 3)
	if err != nil {
		t.Fatalf("streamed MEASURE failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*opts.IOTimeout {
		t.Fatalf("the batch took %v, less than two deadlines: the test shows nothing", elapsed)
	}
	for i, l := range loads {
		want, err := db.EMMeasureN(dd, l, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], *want) {
			t.Fatalf("part %d: remote %+v != direct %+v", i+1, got[i], *want)
		}
	}
}

// TestMeasureBatchOutlastsDeadline: the daemon writes each MEASURE reply
// line as soon as its part is measured, so a 128-part batch goes through,
// with no retry allowed, under a deadline of twenty parts' measuring time,
// about a sixth of the batch's length. The deadline is sized from a
// calibration batch, so the margins hold on fast and slow hosts alike.
func TestMeasureBatchOutlastsDeadline(t *testing.T) {
	const samples, n = 1000, 128
	addr, _ := startServer(t)
	_, dd := directBench(t)
	calib, _ := randomParts(dd, 8, 11)
	c := dial(t, addr)
	start := time.Now()
	if _, err := c.Measure(calib, samples); err != nil {
		t.Fatal(err)
	}
	perPart := time.Since(start) / time.Duration(len(calib))

	opts := fastOpts()
	opts.IOTimeout = max(20*perPart, 20*time.Millisecond)
	opts.MaxAttempts = 1
	sc, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	parts, _ := randomParts(dd, n, 12)
	start = time.Now()
	if _, err := sc.Measure(parts, samples); err != nil {
		t.Fatalf("%d-part MEASURE under a %v deadline (%v a part): %v", n, opts.IOTimeout, perPart, err)
	}
	t.Logf("%d parts in %v under a %v deadline", n, time.Since(start), opts.IOTimeout)
}

// TestMeasureKeepsPartialReply: a MEASURE whose reply stream dies
// partway returns, with the error, the parts whose lines did arrive — the
// most any attempt read. The fake target reads each request in full and
// answers one, three, then two of its four parts before hanging up.
func TestMeasureKeepsPartialReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, dd := directBench(t)
	parts, _ := randomParts(dd, 4, 9)
	go func() {
		for _, lines := range []int{1, 3, 2} {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r := bufio.NewReader(conn)
			_, err = readLine(r)
			for range parts {
				if err == nil {
					_, err = readPart(r)
				}
			}
			for k := 0; k < lines && err == nil; k++ {
				_, err = fmt.Fprintf(conn, "OK %d 1e+06 0.5\n", -k)
			}
			conn.Close()
		}
	}()
	opts := fastOpts()
	opts.MaxAttempts = 3
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ms, err := c.Measure(parts, 3)
	if err == nil {
		t.Fatal("a MEASURE no attempt completed succeeded")
	}
	if len(ms) != 3 {
		t.Fatalf("%d measurements kept, want 3", len(ms))
	}
	for k, m := range ms {
		if m.PeakDBm != float64(-k) || m.PeakHz != 1e6 || m.Samples != 3 {
			t.Fatalf("part %d: %+v", k+1, m)
		}
	}
}

// pipeListener hands a daemon the server ends of in-memory pipes, whose
// writes block until the other end reads: a client that stops reading
// stalls the daemon's very next reply write.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestStalledReaderReleasesDomain: a session that stops reading holds
// nothing another session needs. Its MEASURE's reply write blocks until
// the daemon's write deadline fails it and closes the session; meanwhile
// another session's MEASURE on the same domain completes.
func TestStalledReaderReleasesDomain(t *testing.T) {
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	srv.writeTimeout = time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pl := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go func() { _ = srv.Serve(ln) }()
	go func() { _ = srv.Serve(pl) }()
	t.Cleanup(func() { _ = srv.Shutdown() })

	stalled, end := net.Pipe()
	defer stalled.Close()
	pl.conns <- end
	_, dd := directBench(t)
	part, _ := probePart(t, dd)
	start := time.Now()
	if _, err := stalled.Write([]byte("MEASURE 1 1\n" + partBody(part))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the reply write is blocked by now

	opts := fastOpts()
	opts.IOTimeout = 5 * time.Second
	opts.MaxAttempts = 1
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	part.Seq = part.Seq[1:] // a load the stalled batch has not memoized
	if _, err := measureOne(c, part, 3); err != nil {
		t.Fatalf("MEASURE beside a session that stopped reading: %v", err)
	}
	took := time.Since(start)
	if took >= srv.writeTimeout {
		t.Fatalf("the other session's MEASURE took %v, past the stalled write's %v deadline", took, srv.writeTimeout)
	}
	t.Logf("the other session's MEASURE completed %v after the stalled one", took)

	// The daemon closes the stalled session once the write deadline
	// fails its reply, and the reply never reaches the stalled reader.
	for srv.tracks(end) {
		if time.Since(start) > srv.writeTimeout+2*time.Second {
			t.Fatalf("stalled session still open %v after its MEASURE, past its %v write deadline", time.Since(start), srv.writeTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("stalled session closed %v after its MEASURE", time.Since(start))
	_ = stalled.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := stalled.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("stalled session after its write deadline: read %d bytes, %v; want it closed", n, err)
	}
}

// tracks reports whether the server still serves conn.
func (s *Server) tracks(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.conns[conn]
	return ok
}

// TestReconnectReplay severs the connection before a MEASURE whose part
// has one of two cores powered and checks that the MEASURE transparently
// reconnects and reads the exact value a fault-free direct bench yields
// with one core powered. The part carries its powered cores, so nothing
// is replayed: MEASURE is the only verb the client sends.
func TestReconnectReplay(t *testing.T) {
	addr, _ := startServer(t)
	proxy, err := chaos.New(addr, chaos.Config{Seed: 1}) // no probabilistic faults
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := DialOptions(proxy.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	db, dd := directBench(t)
	p, load := probePart(t, dd)
	p.Powered, p.Cores, load.ActiveCores = 1, 1, 1
	nominal, err := db.EMMeasureN(dd, load, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the live connection: the MEASURE must reconnect and retry.
	proxy.KillActive()
	m, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatalf("measure after severed connection: %v", err)
	}

	one, err := dd.Gated(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.EMMeasureN(one, load, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, nominal) {
		t.Fatal("1-core and nominal readings agree; the check is vacuous")
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("retried measurement %+v != direct %+v", m, want)
	}

	st := c.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("stats: %d reconnects, want >= 1", st.Reconnects)
	}
	if st.Commands["MEASURE"].Retries < 1 {
		t.Fatalf("stats: MEASURE retries = %d, want >= 1", st.Commands["MEASURE"].Retries)
	}
	if len(st.Commands) != 1 {
		t.Fatalf("stats: the client sent %v, want MEASURE alone", st.Commands)
	}
}

// TestDeadlineExpiry points a client at a listener that never replies: the
// per-command deadline must fire and the command fail after MaxAttempts,
// quickly, instead of hanging forever.
func TestDeadlineExpiry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never reply
		}
	}()

	opts := fastOpts()
	opts.IOTimeout = 100 * time.Millisecond
	opts.MaxAttempts = 2
	c, err := DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, _, err = c.Info()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("INFO against a mute server succeeded")
	}
	if IsTargetError(err) {
		t.Fatalf("deadline expiry classified as target error: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline path took %v", elapsed)
	}
	st := c.Stats()
	if st.Commands["INFO"].Retries != 1 || st.Commands["INFO"].Errors != 1 {
		t.Fatalf("INFO stats = %+v, want 1 retry, 1 error", st.Commands["INFO"])
	}
}

// TestTargetErrorNotRetried: an ERR reply is a healthy transport carrying
// a rejected command — it must surface immediately, not burn retries.
func TestTargetErrorNotRetried(t *testing.T) {
	addr, _ := startServer(t)
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, dd := directBench(t)
	p, _ := probePart(t, dd)
	p.Powered = 99
	_, err = measureOne(c, p, 3)
	if err == nil {
		t.Fatal("bad powered-core count accepted")
	}
	if !IsTargetError(err) {
		t.Fatalf("ERR reply not classified as target error: %v", err)
	}
	st := c.Stats()
	if st.Commands["MEASURE"].Retries != 0 {
		t.Fatalf("target error was retried: %+v", st.Commands["MEASURE"])
	}
	// The session is still healthy.
	if _, _, err := c.Info(); err != nil {
		t.Fatalf("session dead after target error: %v", err)
	}
}

// TestGarbledPayloadRetried: an OK reply whose payload does not parse
// means the stream is suspect; the client must reconnect and retry rather
// than surface a parse error. A scripted fake server returns a truncated
// MEASURE payload once, then a well-formed one; it consumes each MEASURE's
// part the way the daemon does.
func TestGarbledPayloadRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan int, 16)
	go func() {
		n := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n++
			conns <- n
			go func(conn net.Conn, id int) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for {
					line, err := readLine(r)
					if err != nil {
						return
					}
					if strings.HasPrefix(line, "MEASURE") {
						if _, err := readPart(r); err != nil {
							return
						}
					}
					reply := "OK -40.5 7e+07 0.25"
					if id == 1 {
						reply = "OK -40.5" // truncated payload
					}
					if err := writeLine(w, "%s", reply); err != nil {
						return
					}
				}
			}(conn, n)
		}
	}()

	c, err := DialOptions(ln.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, dd := directBench(t)
	p, _ := probePart(t, dd)
	m, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatalf("measure through garbled payload: %v", err)
	}
	if m.PeakDBm != -40.5 || m.PeakHz != 7e7 || m.StdevDBm != 0.25 || m.Samples != 3 {
		t.Fatalf("measurement %+v", m)
	}
	st := c.Stats()
	if st.Commands["MEASURE"].Retries < 1 || st.Reconnects < 1 {
		t.Fatalf("garbled payload did not force retry+reconnect: %+v", st)
	}
}

// TestCloseReadsQuitReply: Close must round-trip QUIT (send and read the
// "OK bye") so the daemon sees an orderly teardown.
func TestCloseReadsQuitReply(t *testing.T) {
	addr, _ := startServer(t)
	c, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := c.Stats()
	cs := st.Commands["QUIT"]
	if cs.Calls != 1 || cs.Errors != 0 {
		t.Fatalf("QUIT stats %+v: reply was not read back", cs)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestServerShutdown: Shutdown must close the listener (Serve returns
// nil, not an accept error) and sever live handler connections.
func TestServerShutdown(t *testing.T) {
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBench(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	rc := rawDial(t, ln.Addr().String())
	if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("INFO -> %q", reply)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The live session was severed.
	_ = rc.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := writeLine(rc.w, "INFO"); err == nil {
		if _, err := readLine(rc.r); err == nil {
			t.Fatal("handler still answering after Shutdown")
		}
	}
	// Serving again on a closed server refuses immediately.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if err := srv.Serve(ln2); err != ErrServerClosed {
		t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestPoolBasics: checkout/return, stats aggregation, close semantics.
func TestPoolBasics(t *testing.T) {
	addr, _ := startServer(t)
	pool, err := NewPool(addr, 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pool.clients); n != 3 {
		t.Fatalf("size %d", n)
	}
	for i := 0; i < 5; i++ {
		if err := pool.Do(func(c *Client) error {
			_, _, err := c.Info()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Dials != 3 {
		t.Fatalf("pool dials = %d, want 3", st.Dials)
	}
	if st.Commands["INFO"].Calls != 5 {
		t.Fatalf("pooled INFO calls = %d, want 5", st.Commands["INFO"].Calls)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := pool.Do(func(*Client) error { return nil }); err != ErrClosed {
		t.Fatalf("Do after close = %v, want ErrClosed", err)
	}
	if _, err := NewPool("127.0.0.1:1", 2, Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("pool to closed port succeeded")
	}
}

// TestPoolChaosGAMatchesDirect is the PR's acceptance gate: a full GA run
// over 8 pooled clients, through a chaos proxy injecting seeded drops,
// delays past the I/O deadline and garbled replies, must produce exactly
// the result of a serial, fault-free, in-process run — faults and
// parallelism may cost wall-clock, never fidelity.
func TestPoolChaosGAMatchesDirect(t *testing.T) {
	// Direct, serial reference run.
	db, dd := directBench(t)
	ipool := dd.Spec.Pool()
	cfg := ga.DefaultConfig(ipool)
	cfg.PopulationSize = 8
	cfg.Generations = 4
	cfg.Parallelism = 1
	want, err := ga.Run(cfg, db.EMMeasurer(dd, 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Remote run: pool of 8 through the chaos proxy.
	addr, _ := startServer(t)
	proxy, err := chaos.New(addr, chaos.Config{
		Seed:       42,
		DropRate:   0.05,
		GarbleRate: 0.04,
		DelayRate:  0.005,
		Delay:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pool, err := NewPool(proxy.Addr(), 8, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	rcfg := cfg
	rcfg.Parallelism = 8
	got, err := ga.Run(rcfg, emMeasurer(pool, platform.DomainA72, 2, 3, ipool), nil)
	if err != nil {
		t.Fatal(err)
	}

	if got.Best.Fitness != want.Best.Fitness {
		t.Fatalf("remote best fitness %v != direct %v", got.Best.Fitness, want.Best.Fitness)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Fatal("remote GA history diverged from direct run")
	}
	cs := proxy.Stats()
	if cs.Drops+cs.Garbles+cs.Delays == 0 {
		t.Fatal("chaos proxy injected no faults; test is vacuous")
	}
	st := pool.Stats()
	if st.Reconnects == 0 {
		t.Fatal("transport never reconnected; test is vacuous")
	}
	t.Logf("chaos: %+v; transport: %d dials, %d reconnects", cs, st.Dials, st.Reconnects)
}
