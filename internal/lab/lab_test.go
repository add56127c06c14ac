package lab

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/vmin"
	"repro/internal/workload"
)

// startServer launches a daemon on a loopback port and returns its address.
func startServer(t *testing.T) (string, *core.Bench) {
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
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), b
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil bench accepted")
	}
}

func TestInfo(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	name, domains, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if name != b.Platform.Name {
		t.Fatalf("platform name %q", name)
	}
	if len(domains) != 2 {
		t.Fatalf("domains %v", domains)
	}
}

func TestLoadRunMeasureStop(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
		t.Fatal(err)
	}
	// Measuring before RUN must fail, like a real bench with no binary up.
	if _, err := c.Measure(3); err == nil {
		t.Fatal("measure without run succeeded")
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakDBm > 0 || m.PeakDBm < -100 {
		t.Fatalf("implausible peak %v dBm", m.PeakDBm)
	}
	if m.PeakHz < 50e6 || m.PeakHz > 200e6 {
		t.Fatalf("peak frequency %v outside band", m.PeakHz)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(3); err == nil {
		t.Fatal("measure after stop succeeded")
	}
}

// TestRepeatMeasureServedByMemo: MEASURE is a batch of one on the daemon's
// bench, so a second MEASURE of the same running load is a memo hit that
// returns the first reading bit for bit, stdev included.
func TestRepeatMeasureServedByMemo(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	defer c.Close()
	d, _ := b.Platform.Domain(platform.DomainA72)
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	first, err := c.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first.PeakDBm) != math.Float64bits(second.PeakDBm) ||
		math.Float64bits(first.PeakHz) != math.Float64bits(second.PeakHz) ||
		math.Float64bits(first.StdevDBm) != math.Float64bits(second.StdevDBm) {
		t.Fatalf("repeat MEASURE diverged: %+v then %+v", first, second)
	}
	if first.StdevDBm == 0 {
		t.Fatal("MEASURE lost its stdev")
	}
	if bs := b.BatchStats(); bs.Batches != 2 || bs.Measured != 1 || bs.MemoHits != 1 {
		t.Fatalf("daemon bench stats %+v, want 2 batches, 1 measured, 1 memo hit", bs)
	}
}

func TestDomainControls(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)

	if err := c.SetClock(platform.DomainA72, 600e6); err != nil {
		t.Fatal(err)
	}
	if d.ClockHz() != 600e6 {
		t.Fatalf("clock = %v", d.ClockHz())
	}
	if err := c.SetCores(platform.DomainA72, 1); err != nil {
		t.Fatal(err)
	}
	if d.PoweredCores() != 1 {
		t.Fatalf("cores = %d", d.PoweredCores())
	}
	if err := c.SetVolts(platform.DomainA72, 0.95); err != nil {
		t.Fatal(err)
	}
	if d.SupplyVolts() != 0.95 {
		t.Fatalf("volts = %v", d.SupplyVolts())
	}
	if err := c.Reset(platform.DomainA72); err != nil {
		t.Fatal(err)
	}
	if d.PoweredCores() != 2 || d.ClockHz() != d.Spec.MaxClockHz {
		t.Fatal("reset did not restore state")
	}
	// Errors surface as ERR replies, not dropped connections.
	if err := c.SetCores(platform.DomainA72, 99); err == nil {
		t.Fatal("bad core count accepted")
	}
	if err := c.SetClock("nope", 1e9); err == nil {
		t.Fatal("unknown domain accepted")
	}
	// The session stays usable after an error.
	if _, _, err := c.Info(); err != nil {
		t.Fatalf("session dead after error: %v", err)
	}
}

// TestRemoteSweep: one SWEEP over the whole clock grid, assembled on the
// workstation, must equal a local FastResonanceSweep bit for bit.
func TestRemoteSweep(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	db, dd := directBench(t)
	want, err := db.FastResonanceSweep(dd, 2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := c.Sweep(platform.DomainA72, 2, db.Samples, core.SweepClockSteps(dd))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AssembleSweep(points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote sweep diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.ResonanceHz < 60e6 || got.ResonanceHz > 80e6 {
		t.Fatalf("remote sweep resonance %v", got.ResonanceHz)
	}
	if len(got.Points) < 10 || got.PeakDBm > 0 {
		t.Fatalf("sweep stats %v %d", got.PeakDBm, len(got.Points))
	}
	if _, err := c.Sweep(platform.DomainA72, 2, 3, nil); err == nil {
		t.Fatal("sweep with no clocks accepted")
	}
}

// emMeasurer is the GA fitness function over a pool: each evaluation
// borrows a session for one load/run/measure/stop cycle.
func emMeasurer(p *Pool, domain string, cores, samples int, ipool *isa.Pool) ga.Measurer {
	return ga.MeasurerFunc(func(seq []isa.Inst) (float64, float64, error) {
		var fit, dom float64
		err := p.Do(func(c *Client) error {
			return c.Cycle(domain, cores, ipool, seq, func() error {
				m, err := c.Measure(samples)
				if err != nil {
					return err
				}
				fit, dom = m.PeakDBm, m.PeakHz
				return nil
			})
		})
		return fit, dom, err
	})
}

func TestRemoteGA(t *testing.T) {
	addr, _ := startServer(t)
	db, dd := directBench(t)
	ipool := dd.Spec.Pool()
	cfg := ga.DefaultConfig(ipool)
	cfg.PopulationSize = 8
	cfg.Generations = 4
	want, err := ga.Run(cfg, db.EMMeasurer(dd, 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewPool(addr, 1, Options{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := ga.Run(cfg, emMeasurer(pool, platform.DomainA72, 2, 3, ipool), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 4 {
		t.Fatalf("history %d", len(res.History))
	}
	if res.Best.Fitness > 0 || res.Best.Fitness < -100 {
		t.Fatalf("best fitness %v dBm implausible", res.Best.Fitness)
	}
	if res.Best.Fitness != want.Best.Fitness || !reflect.DeepEqual(res.History, want.History) {
		t.Fatal("remote GA diverged from the direct run")
	}
}

func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	send := func(line string) string {
		if err := writeLine(w, "%s", line); err != nil {
			t.Fatal(err)
		}
		reply, err := readLine(r)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	for _, cmd := range []string{
		"FROBNICATE",
		"LOAD onearg",
		"LOAD cortex-a72 2 -5",
		"RUN",          // nothing loaded
		"MEASURE 0",    // bad sample count
		"SWEEP",        // missing args
		"SETCLOCK x",   // missing value
		"SETCORES a b", // non-numeric
		"RESET",        // missing domain
	} {
		if reply := send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	if reply := send("QUIT"); !strings.HasPrefix(reply, "OK") {
		t.Errorf("QUIT -> %q", reply)
	}
}

func TestLoadRejectsBadProgram(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if err := writeLine(w, "LOAD cortex-a72 2 1"); err != nil {
		t.Fatal(err)
	}
	if err := writeLine(w, "bogus instruction here"); err != nil {
		t.Fatal(err)
	}
	reply, err := readLine(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("bad program accepted: %q", reply)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestRemoteVmin: VMIN carries the workstation's tester seed, so the
// remote search and its per-run list equal a local one bit for bit.
func TestRemoteVmin(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	// VMIN before anything is loaded must fail.
	if _, err := c.Vmin(5, 1); err == nil {
		t.Fatal("vmin without a loaded workload succeeded")
	}
	_, dd := directBench(t)
	pool := dd.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRuns, err := vmin.NewTester(dd, 5).Repeat(platform.Load{Seq: seq, ActiveCores: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
		t.Fatal(err)
	}
	res, err := c.Vmin(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VminV <= 0 || res.VminV >= dd.Spec.PDN.VNominal {
		t.Fatalf("remote vmin %v", res.VminV)
	}
	if res.Outcome == vmin.Pass {
		t.Fatalf("outcome %q", res.Outcome)
	}
	if res.VminV != want.VminV || res.MarginV != want.MarginV ||
		res.DroopNominalV != want.DroopNominalV || res.Outcome != want.Outcome ||
		!reflect.DeepEqual(res.Runs, wantRuns) {
		t.Fatalf("remote vmin %+v != direct %+v runs %v", res, want, wantRuns)
	}
	if _, err := c.Vmin(5, 0); err == nil {
		t.Fatal("0 repeats accepted")
	}
}

// Two workstations talking to the same daemon concurrently must not
// corrupt each other or the shared instruments (run under -race). Each
// session owns its own load/run slot, so both clients interleave full
// LOAD/RUN/MEASURE cycles on the SAME domain with DIFFERENT programs —
// and each must read back exactly the measurement its own program
// produces on a fault-free serial bench. A third client hammers domain
// setpoints and sweeps at the same time on the other domain.
func TestConcurrentClients(t *testing.T) {
	addr, b := startServer(t)
	d, err := b.Platform.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Spec.Pool()

	// Two distinct programs and their expected fault-free measurements,
	// computed on an independent identical bench.
	probe, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]isa.Inst, len(probe))
	for i, in := range probe {
		rev[len(probe)-1-i] = in
	}
	refPlat, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	refBench, err := core.NewBench(refPlat, 1)
	if err != nil {
		t.Fatal(err)
	}
	refDom, err := refPlat.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(seq []isa.Inst) float64 {
		m, err := refBench.EMMeasureN(refDom, platform.Load{Seq: seq, ActiveCores: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m.PeakDBm
	}
	wantProbe, wantRev := expect(probe), expect(rev)

	cycle := func(seq []isa.Inst, want float64) error {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		for rep := 0; rep < 3; rep++ {
			if err := c.Load(platform.DomainA72, 2, pool, seq); err != nil {
				return err
			}
			if err := c.Run(); err != nil {
				return err
			}
			m, err := c.Measure(2)
			if err != nil {
				return err
			}
			if m.PeakDBm != want {
				return fmt.Errorf("session measured %v, want its own program's %v", m.PeakDBm, want)
			}
			if err := c.Stop(); err != nil {
				return err
			}
		}
		return nil
	}

	a53, err := b.Platform.Domain(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	a53Steps := core.SweepClockSteps(a53)

	done := make(chan error, 3)
	go func() { done <- cycle(probe, wantProbe) }()
	go func() { done <- cycle(rev, wantRev) }()
	go func() {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for rep := 0; rep < 2; rep++ {
			if err := c.SetCores(platform.DomainA53, 2); err != nil {
				done <- err
				return
			}
			if _, err := c.Sweep(platform.DomainA53, 1, 2, a53Steps); err != nil {
				done <- err
				return
			}
			if err := c.Reset(platform.DomainA53); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
