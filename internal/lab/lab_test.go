package lab

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/instrument"
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

// probePart is the probe loop on both A72 cores as a request part, and
// the load it stands for.
func probePart(t *testing.T, d *platform.Domain) (Part, platform.Load) {
	t.Helper()
	pool := d.Spec.Pool()
	seq, err := workload.Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	return Part{Domain: d.Spec.Name, Powered: 2, Cores: 2, Pool: pool, Seq: seq}, platform.Load{Seq: seq, ActiveCores: 2}
}

// TestMeasureCarriesLoad: one MEASURE ships its program with the request
// and reads back exactly what a direct bench measures for that load, the
// averaging depth included.
func TestMeasureCarriesLoad(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	db, dd := directBench(t)
	p, load := probePart(t, dd)
	m, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fitness > 0 || m.Fitness < -100 {
		t.Fatalf("implausible peak %v dBm", m.Fitness)
	}
	if m.DominantHz < 50e6 || m.DominantHz > 200e6 {
		t.Fatalf("peak frequency %v outside band", m.DominantHz)
	}
	want, err := emMeasure(db, dd, load, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m != emFitness(want) {
		t.Fatalf("remote MEASURE %+v != direct %+v", m, want)
	}
}

// TestRepeatMeasureServedByMemo: MEASURE is a batch of one on the daemon's
// bench, so with a persistent store installed (labtarget -cache-dir) a
// second MEASURE of the same load is a store hit, counted in MemoHits,
// that returns the first reading bit for bit.
func TestRepeatMeasureServedByMemo(t *testing.T) {
	s, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := core.SetPersistentStore(s)
	t.Cleanup(func() { core.SetPersistentStore(prev) })
	addr, b := startServer(t)
	c := dial(t, addr)
	defer c.Close()
	d, _ := b.Platform.Domain(platform.DomainA72)
	p, _ := probePart(t, d)
	first, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first.Fitness) != math.Float64bits(second.Fitness) ||
		math.Float64bits(first.DominantHz) != math.Float64bits(second.DominantHz) {
		t.Fatalf("repeat MEASURE diverged: %+v then %+v", first, second)
	}
	if bs := b.BatchStats(); bs.Batches != 2 || bs.Measured != 1 || bs.MemoHits != 1 {
		t.Fatalf("daemon bench stats %+v, want 2 batches, 1 measured, 1 store hit", bs)
	}
}

// randomParts is n random A72 loops as parts on both cores, with the
// loads they stand for.
func randomParts(d *platform.Domain, n int, seed int64) ([]Part, []platform.Load) {
	pool := d.Spec.Pool()
	rng := rand.New(rand.NewSource(seed))
	parts := make([]Part, n)
	loads := make([]platform.Load, n)
	for i := range parts {
		seq := pool.RandomSequence(rng, 12)
		parts[i] = Part{Domain: d.Spec.Name, Powered: 2, Cores: 2, Pool: pool, Seq: seq}
		loads[i] = platform.Load{Seq: seq, ActiveCores: 2}
	}
	return parts, loads
}

// TestMultiPartMeasureEquivalence: one MEASURE carries a chunk of parts,
// clones included, and answers each with exactly what a direct bench
// measures for its load, in one batch on the daemon's bench. Parts naming
// different domains are one rejected request, its ERR naming the part.
func TestMultiPartMeasureEquivalence(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	db, dd := directBench(t)
	parts, loads := randomParts(dd, 9, 4)
	parts[7], loads[7] = parts[2], loads[2]
	got, err := c.Measure(parts, core.MetricEM, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		want, err := emMeasure(db, dd, l, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != emFitness(want) {
			t.Fatalf("part %d: remote %+v != direct %+v", i+1, got[i], *want)
		}
	}
	if bs := b.BatchStats(); bs.Batches != 1 || bs.Items != 9 || bs.DedupHits != 1 {
		t.Fatalf("daemon bench stats %+v, want one batch of 9 items with 1 dedup hit", bs)
	}
	mixed := append([]Part(nil), parts[:2]...)
	mixed[1].Domain = platform.DomainA53
	if _, err := c.Measure(mixed, core.MetricEM, 3, 0); !IsTargetError(err) || !strings.Contains(err.Error(), "part 2: ") {
		t.Fatalf("mixed-domain MEASURE: %v, want an ERR naming part 2", err)
	}
	mixed[1].Domain, mixed[1].Powered = platform.DomainA72, 1
	mixed[1].Cores = 1
	if _, err := c.Measure(mixed, core.MetricEM, 3, 0); !IsTargetError(err) || !strings.Contains(err.Error(), "part 2: ") {
		t.Fatalf("mixed-powered MEASURE: %v, want an ERR naming part 2", err)
	}
	if _, err := c.Measure(nil, core.MetricEM, 3, 0); err == nil {
		t.Fatal("MEASURE with no parts accepted")
	}
}

// partBody renders one part in its wire form, as a request body carries
// it.
func partBody(p Part) string { return string((&Client{}).appendPart(nil, p)) }

// measureOne measures one part's em fitness through a one-part MEASURE.
func measureOne(c *Client, p Part, samples int) (ga.BatchResult, error) {
	res, err := c.Measure([]Part{p}, core.MetricEM, samples, 0)
	if err != nil {
		return ga.BatchResult{}, err
	}
	return res[0], nil
}

// emFitness is a direct EM measurement as the fitness a MEASURE reply
// carries for it.
func emFitness(m *instrument.Measurement) ga.BatchResult {
	return ga.BatchResult{Fitness: m.PeakDBm, DominantHz: m.PeakHz}
}

// emMeasure is one direct EM reading on a bench: a batch of one.
func emMeasure(b *core.Bench, d *platform.Domain, l platform.Load, samples int) (*instrument.Measurement, error) {
	ms, err := b.EMMeasureBatch(d, []platform.Load{l}, samples, 1, nil)
	if err != nil {
		return nil, err
	}
	return &ms[0], nil
}

// TestDomainControls: power gating is the part's powered-core field. A
// part with one of two A72 cores powered reads what a direct bench reads
// on the domain's one-core view, the daemon's domain is left as it was,
// and an out-of-range count is an ERR reply on a session that stays
// usable.
func TestDomainControls(t *testing.T) {
	addr, b := startServer(t)
	c := dial(t, addr)
	d, _ := b.Platform.Domain(platform.DomainA72)
	db, dd := directBench(t)
	p, load := probePart(t, dd)
	p.Powered, p.Cores, load.ActiveCores = 1, 1, 1

	got, err := measureOne(c, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	one, err := dd.Gated(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := emMeasure(db, one, load, 3)
	if err != nil {
		t.Fatal(err)
	}
	all, err := emMeasure(db, dd, load, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != emFitness(want) || reflect.DeepEqual(want, all) {
		t.Fatalf("one powered core: remote %+v, direct %+v, every core powered %+v", got, want, all)
	}
	if d.PoweredCores() != d.Spec.TotalCores {
		t.Fatalf("a gated request left the daemon's domain at %d cores", d.PoweredCores())
	}
	// Errors surface as ERR replies, not dropped connections.
	for _, powered := range []int{0, 99} {
		p.Powered = powered
		if _, err := measureOne(c, p, 3); !IsTargetError(err) {
			t.Fatalf("%d powered cores: %v, want an ERR", powered, err)
		}
	}
	p.Domain, p.Powered = "nope", 1
	if _, err := measureOne(c, p, 3); !IsTargetError(err) {
		t.Fatalf("unknown domain: %v, want an ERR", err)
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
	points, err := c.Sweep(platform.DomainA72, 2, 2, db.Samples, core.SweepClockSteps(dd))
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
	if points, err := c.Sweep(platform.DomainA72, 2, 2, 3, nil); err != nil || len(points) != 0 {
		t.Fatalf("sweep with no clocks: %v, %v; want no points and no error", points, err)
	}
}

// emMeasurer is the GA fitness function over a pool: each evaluation
// borrows a session for one MEASURE carrying the individual.
func emMeasurer(p *Pool, domain string, cores, samples int, ipool *isa.Pool) ga.Measurer {
	return ga.MeasurerFunc(func(seq []isa.Inst) (float64, float64, error) {
		var fit, dom float64
		err := p.Do(func(c *Client) error {
			m, err := measureOne(c, Part{Domain: domain, Powered: cores, Cores: cores, Pool: ipool, Seq: seq}, samples)
			if err != nil {
				return err
			}
			fit, dom = m.Fitness, m.DominantHz
			return nil
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
		"MEASURE em 0 0 1\ncortex-a72 2 2 1 0\nnop", // bad sample count
		"LOAD cortex-a72 2 1",                       // the verb is gone
		"RUN",
		"SETCLOCK cortex-a72 6e8", // so is this one
		"SWEEP",                   // missing args
		"STATE cortex-a72",        // the rig has no state to query,
		"SETCORES cortex-a72 1",   // to set
		"RESET cortex-a72",        // or to reset
	} {
		if reply := send(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q -> %q, want ERR", cmd, reply)
		}
	}
	if reply := send("QUIT"); !strings.HasPrefix(reply, "OK") {
		t.Errorf("QUIT -> %q", reply)
	}
}

// TestLoadRejectsBadProgram: a part whose program does not assemble is an
// ERR reply, not a measurement of whatever parsed.
func TestLoadRejectsBadProgram(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if err := writeLine(w, "MEASURE em 3 0 1\ncortex-a72 2 2 1 0\nbogus instruction here"); err != nil {
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

// TestVminCarriesLoad: VMIN carries its load and the workstation's tester
// seed, so the remote search and its per-run list equal a local one bit
// for bit.
func TestVminCarriesLoad(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	_, dd := directBench(t)
	p, load := probePart(t, dd)
	want, wantRuns, err := vmin.NewTester(dd, 5).Repeat(load, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, runs, err := c.Vmin(p, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VminV <= 0 || res.VminV >= dd.Spec.PDN.VNominal {
		t.Fatalf("remote vmin %v", res.VminV)
	}
	if res.Outcome == vmin.Pass {
		t.Fatalf("outcome %q", res.Outcome)
	}
	if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(runs, wantRuns) {
		t.Fatalf("remote vmin %+v runs %v != direct %+v runs %v", res, runs, want, wantRuns)
	}
	if _, _, err := c.Vmin(p, 5, 0); err == nil {
		t.Fatal("0 repeats accepted")
	}
}

// Two workstations talking to the same daemon concurrently must not
// corrupt each other or the shared instruments (run under -race). Every
// MEASURE carries its own program, so both clients interleave requests
// on the SAME domain with DIFFERENT programs — and each must read back
// exactly the measurement its own program produces on a fault-free
// serial bench. A third client sweeps the other domain at alternating
// powered-core counts at the same time.
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
		m, err := emMeasure(refBench, refDom, platform.Load{Seq: seq, ActiveCores: 2}, 2)
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
			m, err := measureOne(c, Part{Domain: platform.DomainA72, Powered: 2, Cores: 2, Pool: pool, Seq: seq}, 2)
			if err != nil {
				return err
			}
			if m.Fitness != want {
				return fmt.Errorf("session measured %v, want its own program's %v", m.Fitness, want)
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
			for _, powered := range []int{2, 4} {
				if _, err := c.Sweep(platform.DomainA53, powered, 1, 2, a53Steps); err != nil {
					done <- err
					return
				}
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
