package lab

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lab/chaos"
	"repro/internal/platform"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// TestHelloVersionMismatch: HELLO does not negotiate. The daemon accepts
// exactly its own version and rejects any other with an ERR naming both;
// the client rejects a daemon that answers with any other version.
func TestHelloVersionMismatch(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	name, seed, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if name != b.Platform.Name {
		t.Fatalf("platform %q, want %q", name, b.Platform.Name)
	}
	if seed != b.Analyzer.Seed() {
		t.Fatalf("seed %d, want the daemon analyzer's %d", seed, b.Analyzer.Seed())
	}

	rc := rawDial(t, addr)
	for _, v := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		reply := rc.send(fmt.Sprintf("HELLO %d", v))
		want := []string{"ERR", fmt.Sprintf("v%d", v), fmt.Sprintf("v%d", ProtocolVersion)}
		for _, w := range want {
			if !strings.Contains(reply, w) {
				t.Fatalf("HELLO %d -> %q, want an ERR naming v%d and v%d", v, reply, v, ProtocolVersion)
			}
		}
	}

	// An older daemon that answers HELLO with its own version (and the
	// previous reply shape, without a seed) is refused by the client,
	// without retrying a healthy transport.
	old, err := DialOptions(replyServer(t, "OK 5 juno-r2"), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	_, _, err = old.Hello()
	if cur := fmt.Sprintf("v%d", ProtocolVersion); err == nil || !strings.Contains(err.Error(), "v5") || !strings.Contains(err.Error(), cur) {
		t.Fatalf("Hello against a v5 daemon: err = %v, want a mismatch naming v5 and %s", err, cur)
	}
	if st := old.Stats(); st.Commands["HELLO"].Retries != 0 {
		t.Fatalf("version mismatch retried %d times", st.Commands["HELLO"].Retries)
	}
}

// TestCapsAndState: CAPS must mirror the domain spec exactly, with every
// float round-tripping the wire. The rig holds no state, so STATE — and
// SETCORES and RESET, which once wrote it — are unknown commands.
func TestCapsAndState(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	defer c.Close()

	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := c.Caps(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	spec := d.Spec
	if caps.TotalCores != spec.TotalCores || caps.Arch != spec.ISA ||
		caps.MaxClockHz != spec.MaxClockHz || caps.ClockStepHz != spec.ClockStepHz ||
		caps.VoltageVisibility != spec.VoltageVisibility || caps.DSOKind != "oc-dso" {
		t.Fatalf("caps %+v do not mirror spec %+v", caps, spec)
	}

	if _, err := c.Caps("no-such-domain"); err == nil || !IsTargetError(err) {
		t.Fatalf("CAPS on unknown domain: %v", err)
	}
	rc := rawDial(t, addr)
	for _, cmd := range []string{"STATE cortex-a72", "SETCORES cortex-a72 1", "RESET cortex-a72"} {
		verb, _, _ := strings.Cut(cmd, " ")
		if reply := rc.send(cmd); reply != fmt.Sprintf("ERR unknown command %q", verb) {
			t.Errorf("%q -> %q, want an unknown-command ERR", cmd, reply)
		}
	}
	if d.PoweredCores() != d.Spec.TotalCores {
		t.Fatalf("the daemon's domain reads %d powered cores", d.PoweredCores())
	}
}

// replyServer starts a fake daemon that answers every request line with
// the fixed reply, and returns its address.
func replyServer(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for {
					if _, err := readLine(r); err != nil {
						return
					}
					if err := writeLine(w, "%s", reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestCapsReplyFieldCount: a CAPS reply carries exactly six fields; a
// six-field reply parses and a five-field one is rejected as malformed.
func TestCapsReplyFieldCount(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 2
	c, err := DialOptions(replyServer(t, "OK 4 arm64 1.2e+09 1e+07 oc-dso oc-dso"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	caps, err := c.Caps(platform.DomainA72)
	if err != nil {
		t.Fatalf("six-field CAPS reply: %v", err)
	}
	if caps.TotalCores != 4 || caps.MaxClockHz != 1.2e9 || caps.ClockStepHz != 1e7 ||
		caps.VoltageVisibility != "oc-dso" || caps.DSOKind != "oc-dso" {
		t.Fatalf("caps %+v", caps)
	}

	c5, err := DialOptions(replyServer(t, "OK 4 arm64 1.2e+09 1e+07 oc-dso"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c5.Close()
	if _, err := c5.Caps(platform.DomainA72); err == nil || !strings.Contains(err.Error(), "malformed CAPS reply") {
		t.Fatalf("five-field CAPS reply: err = %v, want malformed CAPS reply", err)
	}
}

// TestShortShmooVminRepliesRejected: a SHMOO reply must carry one point
// per requested clock and a VMIN reply one run per repeat. A short reply
// is malformed, never a short result a caller would index past.
func TestShortShmooVminRepliesRejected(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 2
	p := Part{Domain: platform.DomainA72, Powered: 1, Cores: 1, Pool: isa.ARM64Pool()}
	dialReply := func(reply string) *Client {
		c, err := DialOptions(replyServer(t, reply), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	pts, err := dialReply("OK 0").Shmoo(p, 1, []float64{6e8, 1.2e9})
	if err == nil || IsTargetError(err) || !strings.Contains(err.Error(), "malformed SHMOO reply") {
		t.Fatalf("SHMOO of 2 clocks answered OK 0: %d points, err = %v, want malformed SHMOO reply", len(pts), err)
	}
	if _, err := dialReply("OK 1 6e+08 0.8 0.1 pass").Shmoo(p, 1, []float64{6e8}); err != nil {
		t.Fatalf("one-point SHMOO reply for one clock: %v", err)
	}

	_, runs, err := dialReply("OK 0.8 0.1 0.05 pass 0").Vmin(p, 1, 2)
	if err == nil || IsTargetError(err) || !strings.Contains(err.Error(), "malformed VMIN reply") {
		t.Fatalf("VMIN of 2 repeats answered with 0 runs: %d runs, err = %v, want malformed VMIN reply", len(runs), err)
	}
	_, runs, err = dialReply("OK 0.8 0.1 0.05 pass 1 0.8").Vmin(p, 1, 2)
	if err == nil || !strings.Contains(err.Error(), "malformed VMIN reply") {
		t.Fatalf("VMIN of 2 repeats answered with 1 run: %d runs, err = %v, want malformed VMIN reply", len(runs), err)
	}
	if _, runs, err := dialReply("OK 0.8 0.1 0.05 pass 2 0.8 0.79").Vmin(p, 1, 2); err != nil || len(runs) != 2 {
		t.Fatalf("two-run VMIN reply for 2 repeats: %d runs, %v", len(runs), err)
	}
}

// TestBadV9HeadersRejected: every verb that names an operating point
// checks 1 ≤ active ≤ powered ≤ total. A powered-core field that is zero,
// negative, over the domain's total or not an integer, or below the
// active cores, is one ERR reply to MEASURE (em and droop), SWEEP, VMIN,
// SHMOO and MONITOR alike, and the session stays usable.
func TestBadV9HeadersRejected(t *testing.T) {
	addr, b := startServer(t)
	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.Probe().Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	program := strings.TrimSuffix(isa.FormatProgram(d.Spec.Pool(), seq), "\n")
	lines := strings.Count(program, "\n") + 1
	rc := rawDial(t, addr)
	for _, bad := range []struct{ name, powered, cores string }{
		{"zero", "0", "1"},
		{"negative", "-1", "1"},
		{"over the total", "3", "1"},
		{"not an integer", "1.5", "1"},
		{"below the active cores", "1", "2"},
	} {
		part := fmt.Sprintf("cortex-a72 %s %s %d 0\n%s", bad.powered, bad.cores, lines, program)
		for _, req := range []string{
			"MEASURE em 3 0 1\n" + part,
			"MEASURE droop 3 1 1\n" + part,
			fmt.Sprintf("SWEEP cortex-a72 %s %s 3 6e8", bad.powered, bad.cores),
			"VMIN 1 1\n" + part,
			"SHMOO 1 6e8\n" + part,
			"MONITOR 1\n" + part,
		} {
			verb, _, _ := strings.Cut(req, " ")
			if reply := rc.send(req); !strings.HasPrefix(reply, "ERR ") {
				t.Errorf("%s, powered %s: %s -> %q, want ERR", bad.name, bad.powered, verb, reply)
			}
			if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK juno") {
				t.Fatalf("%s, powered %s: session desynced after %s: INFO -> %q", bad.name, bad.powered, verb, reply)
			}
		}
	}
}

// TestMeasureUnknownMetric: MEASURE names its metric, and one it does not
// know is a target error once the parts are read, on a session that stays
// usable.
func TestMeasureUnknownMetric(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := probePart(t, d)
	if _, err := c.Measure([]Part{p, p}, "vdd", 3, 1); err == nil || !IsTargetError(err) || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("MEASURE vdd: err = %v, want an unknown-metric target error", err)
	}
	for _, metric := range []core.Metric{core.MetricEM, core.MetricDroop, core.MetricPtp} {
		if _, err := c.Measure([]Part{p}, metric, 3, 1); err != nil {
			t.Fatalf("MEASURE %s after the rejection: %v", metric, err)
		}
	}
}

// TestMeasureCapabilityError: droop on the voltage-blind A53 is a target
// error carrying the bench's *core.CapabilityError text.
func TestMeasureCapabilityError(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, err := b.Platform.Domain(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.Probe().Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Measure([]Part{{Domain: platform.DomainA53, Powered: 4, Cores: 1, Pool: d.Spec.Pool(), Seq: seq}}, core.MetricDroop, 3, 1)
	want := (&core.CapabilityError{Domain: platform.DomainA53, Metric: core.MetricDroop, Visibility: d.Spec.VoltageVisibility}).Error()
	if err == nil || !IsTargetError(err) || !strings.Contains(err.Error(), want) {
		t.Fatalf("MEASURE droop on %s: err = %v, want the target error %q", platform.DomainA53, err, want)
	}
}

// TestMeasurePhasedVoltageEquivalence: a phased part is measured as sent
// under every metric. Droop and ptp over the wire equal the local core
// batch of the same phased loads bit for bit, and the phases matter.
func TestMeasurePhasedVoltageEquivalence(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	db, dd := directBench(t)
	p, load := probePart(t, dd)
	p.Phases = []float64{0, 37.5}
	phased := load
	phased.PhaseCycles = p.Phases
	for _, metric := range []core.Metric{core.MetricDroop, core.MetricPtp} {
		got, err := c.Measure([]Part{p}, metric, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.WithSamples(3).MeasureLoads(dd, metric, 5, []platform.Load{phased, load}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("%s: remote %+v != local %+v", metric, got[0], want[0])
		}
		if want[0] == want[1] {
			t.Fatalf("%s: the phased and aligned loads read alike; the check is vacuous", metric)
		}
	}
}

// TestV2ProtocolErrors drives the verbs the multi-domain protocol added
// (HELLO, CAPS, MONITOR, STATS; STATE is gone and answers as unknown)
// with malformed arguments over a raw connection; each must produce a single ERR line and leave the
// session aligned. The load-carrying verbs' rejections, each followed by
// its part, are TestLoadDesyncRegression's table; a MONITOR part count
// that closes the session is TestMonitorPartCountClosesSession's.
func TestV2ProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	rc := rawDial(t, addr)

	cases := []string{
		// HELLO: missing, non-numeric and other versions
		"HELLO",
		"HELLO zero",
		"HELLO 4",
		"HELLO 5 extra",
		// per-domain queries
		"CAPS",
		"STATE",
		// MONITOR with zero parts
		"MONITOR 0",
		"STATS",
		"STATS no-such-domain",
	}
	for _, cmd := range cases {
		if reply := rc.send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	// The session survived every rejection.
	if reply := rc.send("INFO"); !strings.HasPrefix(reply, "OK juno") {
		t.Fatalf("session desynced: INFO -> %q", reply)
	}
}

// TestChaosSweepAndShmooMatchDirect is the satellite acceptance test: the
// fast resonance sweep and a short V_MIN shmoo executed through a chaos
// proxy injecting seeded drops and garbles must be bit-identical to the
// same operations on a clean in-process bench.
func TestChaosSweepAndShmooMatchDirect(t *testing.T) {
	// Direct references.
	db, dd := directBench(t)
	want, err := db.FastResonanceSweep(dd, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := dd.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	load := platform.Load{Seq: seq, ActiveCores: 2}
	steps := dd.ClockSteps()
	clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[0]}
	tester := vmin.NewTester(dd, 7)
	wantShmoo, err := tester.Shmoo(load, clocks)
	if err != nil {
		t.Fatal(err)
	}
	wantVmin, wantRuns, err := vmin.NewTester(dd, 7).Repeat(load, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Remote run through seeded chaos.
	addr, _ := startServer(t)
	// Higher fault rates than the GA test: this exchange is only a
	// handful of commands, so mild rates can pass it untouched and make
	// the vacuity check below flaky.
	proxy, err := chaos.New(addr, chaos.Config{
		Seed:       42,
		DropRate:   0.25,
		GarbleRate: 0.2,
		DelayRate:  0.01,
		Delay:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// SHMOO and VMIN compute a whole search server-side before the first
	// reply byte; under -race instrumentation that can exceed the harsh
	// 500ms fast-test budget, so this test alone gets a roomier I/O window
	// (retries are still exercised by the drop/garble rates above).
	opts := fastOpts()
	opts.IOTimeout = 5 * time.Second
	c, err := DialOptions(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	points, err := c.Sweep(platform.DomainA72, 2, 2, 3, core.SweepClockSteps(dd))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AssembleSweep(points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos sweep diverged:\n got %+v\nwant %+v", got, want)
	}

	part := Part{Domain: platform.DomainA72, Powered: 2, Cores: 2, Pool: pool, Seq: seq}
	gotShmoo, err := c.Shmoo(part, 7, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShmoo, wantShmoo) {
		t.Fatalf("chaos shmoo diverged:\n got %+v\nwant %+v", gotShmoo, wantShmoo)
	}

	gotVmin, gotRuns, err := c.Vmin(part, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotVmin, wantVmin) {
		t.Fatalf("chaos vmin %+v != direct %+v", gotVmin, wantVmin)
	}
	if !reflect.DeepEqual(gotRuns, wantRuns) {
		t.Fatalf("chaos vmin runs %v != direct %v", gotRuns, wantRuns)
	}

	cs := proxy.Stats()
	if cs.Drops+cs.Garbles+cs.Delays == 0 {
		t.Fatal("chaos proxy injected no faults; test is vacuous")
	}
}

// TestMonitorMatchesDirect: a remote MONITOR over both Juno domains must
// reproduce the local MonitorAll spectrum exactly, frequency grid
// included.
func TestMonitorMatchesDirect(t *testing.T) {
	db, dd := directBench(t)
	pool := dd.Spec.Pool()
	probe, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := workload.ByName("idle")
	if err != nil {
		t.Fatal(err)
	}
	idleSeq, err := idle.Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]platform.Load{
		platform.DomainA72: {Seq: probe, ActiveCores: 2, PhaseCycles: []float64{10, 10}},
		platform.DomainA53: {Seq: idleSeq, ActiveCores: 4},
	}
	want, err := db.MonitorAll(loads)
	if err != nil {
		t.Fatal(err)
	}

	addr, _ := startServer(t)
	c := dial(t, addr)
	defer c.Close()
	got, err := c.Monitor([]Part{
		{Domain: platform.DomainA53, Powered: 4, Cores: 4, Pool: pool, Seq: idleSeq},
		{Domain: platform.DomainA72, Powered: 2, Cores: 2, Pool: pool, Seq: probe, Phases: []float64{10, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote MONITOR spectrum diverged from local MonitorAll")
	}
}

// TestStatsRoundTrip: STATS must return the exact multi-line counter block
// the daemon's bench renders locally (strconv quoting preserves the
// newlines), batch line included.
func TestStatsRoundTrip(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	defer c.Close()

	// Drive one measurement so the counters are non-trivial.
	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := probePart(t, d)
	if _, err := measureOne(c, p, 3); err != nil {
		t.Fatal(err)
	}

	stats, err := c.DomainStats(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.EvalStats(); stats != want {
		t.Fatalf("remote stats:\n%s\nlocal:\n%s", stats, want)
	}
	if !strings.Contains(stats, "batch eval:") {
		t.Fatal("stats after a MEASURE lack the batch line")
	}
	if !strings.Contains(stats, "\n") {
		t.Fatal("stats lost its line structure on the wire")
	}
}
