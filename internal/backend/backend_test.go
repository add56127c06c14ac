package backend_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/lab"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/workload"
)

// newBench builds the reference bench: Juno, seed 1, 3-sample averaging.
// The in-process daemon and the local backend both use one of these, so
// every comparison below is against the same instrument state.
func newBench(t *testing.T) *core.Bench {
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
	return b
}

// startDaemon serves a reference bench on a loopback port.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv, err := lab.NewServer(newBench(t))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { _ = srv.Shutdown() })
	return ln.Addr().String()
}

func fastOpts() lab.Options {
	return lab.Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   500 * time.Millisecond,
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// identityOpts is fastOpts with the lab's default I/O deadline (a zero
// IOTimeout), for the local≡remote bit-identity tests: one remote SHMOO
// can take about half a second under -race, so fastOpts' 500 ms window
// would fail them spuriously. Deadline tests keep fastOpts.
func identityOpts() lab.Options {
	o := fastOpts()
	o.IOTimeout = 0
	return o
}

func backends(t *testing.T, jobs int) (*backend.Local, *backend.Remote) {
	t.Helper()
	lb := newBench(t)
	lb.Parallelism = jobs
	local, err := backend.NewLocal(lb)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := backend.NewRemote(startDaemon(t), jobs, identityOpts())
	if err != nil {
		t.Fatal(err)
	}
	remote.Samples = lb.Samples
	t.Cleanup(func() { _ = remote.Close() })
	return local, remote
}

func probeLoad(t *testing.T, be backend.Backend, domain string, cores int) platform.Load {
	t.Helper()
	caps, err := be.Caps(domain)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := workload.Probe().Build(caps.Pool())
	if err != nil {
		t.Fatal(err)
	}
	return platform.Load{Seq: seq, ActiveCores: cores}
}

// TestLocalRemoteEquivalence drives the whole Backend surface against a
// Local and a Remote built from identical benches and requires
// bit-identical answers: identity, capabilities, EM measurement, sweeps
// (power-gated and empty ones included), V_MIN campaigns, shmoos,
// multi-domain monitoring and the evaluation counters.
func TestLocalRemoteEquivalence(t *testing.T) {
	local, remote := backends(t, 4)

	if local.PlatformName() != remote.PlatformName() {
		t.Fatalf("platform %q != %q", local.PlatformName(), remote.PlatformName())
	}
	if !reflect.DeepEqual(local.Domains(), remote.Domains()) {
		t.Fatalf("domains %v != %v", local.Domains(), remote.Domains())
	}
	for _, dom := range local.Domains() {
		lc, err := local.Caps(dom)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := remote.Caps(dom)
		if err != nil {
			t.Fatal(err)
		}
		if lc != rc {
			t.Fatalf("%s caps diverge:\nlocal  %+v\nremote %+v", dom, lc, rc)
		}
		if !reflect.DeepEqual(lc.ClockSteps(), rc.ClockSteps()) {
			t.Fatalf("%s clock grids diverge", dom)
		}
	}

	load := probeLoad(t, local, platform.DomainA72, 2)

	var ems [2][2]float64
	for i, be := range []backend.Backend{local, remote} {
		m, err := be.Measurer(backend.MeasurerSpec{Domain: platform.DomainA72, Metric: backend.MetricEM, ActiveCores: 2, Samples: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ems[i][0], ems[i][1], err = m.Measure(load.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if ems[0] != ems[1] {
		t.Fatalf("EM measurement: local %v remote %v", ems[0], ems[1])
	}

	lsw, err := backend.ResonanceSweep(local, platform.DomainA72, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rsw, err := backend.ResonanceSweep(remote, platform.DomainA72, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsw, rsw) {
		t.Fatal("resonance sweeps diverge")
	}
	// Power gating is a request argument: the A53 with 2 of 4 cores powered.
	lg, err := backend.ResonanceSweep(local, platform.DomainA53, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := backend.ResonanceSweep(remote, platform.DomainA53, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lg, rg) {
		t.Fatal("power-gated resonance sweeps diverge")
	}
	// A clock list out of grid order, with the lowest step (probe loop out
	// of band, a nil point) among them.
	a72Caps, _ := local.Caps(platform.DomainA72)
	grid := a72Caps.ClockSteps()
	some := []float64{grid[len(grid)/2], grid[0], grid[len(grid)-1]}
	lpts, err := local.Sweep(platform.DomainA72, 2, 0, 0, some)
	if err != nil {
		t.Fatal(err)
	}
	rpts, err := remote.Sweep(platform.DomainA72, 2, 0, 0, some)
	if err != nil {
		t.Fatal(err)
	}
	if len(lpts) != len(some) || lpts[1] != nil || !reflect.DeepEqual(lpts, rpts) {
		t.Fatalf("sweep points: local %+v remote %+v", lpts, rpts)
	}
	// No clocks: no points and no error on either backend, and the same
	// error for an active-core count the powered cores cannot hold.
	for _, be := range []backend.Backend{local, remote} {
		if pts, err := be.Sweep(platform.DomainA72, 2, 0, 0, nil); err != nil || len(pts) != 0 {
			t.Fatalf("%T: empty sweep = %v, %v; want no points and no error", be, pts, err)
		}
		for _, active := range []int{0, 5} {
			want := fmt.Sprintf("core count %d out of range [1, 2]", active)
			if pts, err := be.Sweep(platform.DomainA72, active, 0, 0, nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%T: empty sweep on %d active cores = %v, %v; want %q", be, active, pts, err, want)
			}
		}
	}

	lv, lruns, err := local.Vmin(platform.DomainA72, load, 0, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rv, rruns, err := remote.Vmin(platform.DomainA72, load, 0, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lv.VminV != rv.VminV || lv.MarginV != rv.MarginV ||
		lv.DroopNominalV != rv.DroopNominalV || lv.Outcome != rv.Outcome {
		t.Fatalf("vmin: local %+v remote %+v", lv, rv)
	}
	if !reflect.DeepEqual(lruns, rruns) {
		t.Fatalf("vmin runs: local %v remote %v", lruns, rruns)
	}

	caps, _ := local.Caps(platform.DomainA72)
	steps := caps.ClockSteps()
	clocks := []float64{steps[len(steps)-1], steps[0]}
	lsh, err := local.VminShmoo(platform.DomainA72, load, 0, 9, clocks)
	if err != nil {
		t.Fatal(err)
	}
	rsh, err := remote.VminShmoo(platform.DomainA72, load, 0, 9, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsh, rsh) {
		t.Fatal("shmoos diverge")
	}

	a53 := probeLoad(t, local, platform.DomainA53, 4)
	loads := map[string]platform.Load{
		platform.DomainA72: load,
		platform.DomainA53: a53,
	}
	lmon, err := local.MonitorAll(loads)
	if err != nil {
		t.Fatal(err)
	}
	rmon, err := remote.MonitorAll(loads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lmon, rmon) {
		t.Fatal("monitor spectra diverge")
	}

	// The daemon ran the same operations the local bench did (in this
	// order), so the per-domain counters agree too.
	lstats, err := local.EvalStats(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	rstats, err := remote.EvalStats(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	if lstats != rstats {
		t.Fatalf("eval stats diverge:\nlocal:\n%s\nremote:\n%s", lstats, rstats)
	}
}

// TestPhaseLoadEquivalence: a load with staggered cores crosses the wire
// in its request part, so a Remote accepts every load a Local does and
// answers it bit for bit: the EM spectrum, a repeated V_MIN search and a
// two-clock shmoo.
func TestPhaseLoadEquivalence(t *testing.T) {
	local, remote := backends(t, 2)
	load := probeLoad(t, local, platform.DomainA72, 2)
	load.PhaseCycles = []float64{0, 37.5}

	lm, err := local.MonitorAll(map[string]platform.Load{platform.DomainA72: load})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := remote.MonitorAll(map[string]platform.Load{platform.DomainA72: load})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lm, rm) {
		t.Fatal("phased EM spectra diverge")
	}
	aligned, err := local.MonitorAll(map[string]platform.Load{platform.DomainA72: probeLoad(t, local, platform.DomainA72, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(aligned, lm) {
		t.Fatal("phased and aligned loads measure the same; the test is vacuous")
	}

	lv, lruns, err := local.Vmin(platform.DomainA72, load, 0, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	rv, rruns, err := remote.Vmin(platform.DomainA72, load, 0, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lv, rv) || !reflect.DeepEqual(lruns, rruns) {
		t.Fatalf("phased vmin: local %+v %v remote %+v %v", lv, lruns, rv, rruns)
	}

	caps, err := local.Caps(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	steps := caps.ClockSteps()
	clocks := []float64{steps[len(steps)-1], steps[0]}
	lsh, err := local.VminShmoo(platform.DomainA72, load, 0, 9, clocks)
	if err != nil {
		t.Fatal(err)
	}
	rsh, err := remote.VminShmoo(platform.DomainA72, load, 0, 9, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsh, rsh) {
		t.Fatalf("phased shmoo: local %+v remote %+v", lsh, rsh)
	}
}

// TestRemoteHelloMismatch: a daemon that answers HELLO with another
// protocol version is a hard construction error naming the address and
// both versions.
func TestRemoteHelloMismatch(t *testing.T) {
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
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if _, err := conn.Write([]byte("OK 3 juno-r2\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().String()
	r, err := backend.NewRemote(addr, 1, fastOpts())
	if err == nil {
		r.Close()
		t.Fatal("NewRemote accepted a v3 daemon")
	}
	for _, want := range []string{addr, "v3", fmt.Sprintf("v%d", lab.ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestMeasurerEquivalence runs a small GA under every metric through both
// backends: em on the voltage-blind A53 (the paper's whole point) and
// droop/ptp on the OC-DSO A72. Histories must match generation by
// generation.
func TestMeasurerEquivalence(t *testing.T) {
	local, remote := backends(t, 8)
	cases := []struct {
		name   string
		spec   backend.MeasurerSpec
		seqLen int
	}{
		{"em-a53", backend.MeasurerSpec{Domain: platform.DomainA53, Metric: backend.MetricEM, ActiveCores: 4, Samples: 3}, 12},
		{"droop-a72", backend.MeasurerSpec{Domain: platform.DomainA72, Metric: backend.MetricDroop, ActiveCores: 2, Samples: 3, DSOSeed: 5}, 12},
		{"ptp-a72", backend.MeasurerSpec{Domain: platform.DomainA72, Metric: backend.MetricPtp, ActiveCores: 2, Samples: 3, DSOSeed: 5}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caps, err := local.Caps(tc.spec.Domain)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ga.DefaultConfig(caps.Pool())
			cfg.PopulationSize = 6
			cfg.Generations = 3
			cfg.SeqLen = tc.seqLen
			cfg.Parallelism = 8

			lmes, err := local.Measurer(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			rmes, err := remote.Measurer(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			lres, err := ga.Run(cfg, lmes, nil)
			if err != nil {
				t.Fatal(err)
			}
			rres, err := ga.Run(cfg, rmes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if lres.Best.Fitness != rres.Best.Fitness || !reflect.DeepEqual(lres.History, rres.History) {
				t.Fatalf("%s GA diverged: local best %v remote best %v",
					tc.name, lres.Best.Fitness, rres.Best.Fitness)
			}
		})
	}
}

// TestMeasureBatchEquivalence: the remote measurer sends a generation as
// multi-part MEASUREs, one per session in use and at most
// lab.MaxMeasureParts parts each, under every metric, and its results
// equal the local backend's evaluation of the same generation and its
// per-item Measure bit for bit at every parallelism, batches holding the
// items[5]/items[17] clones included.
func TestMeasureBatchEquivalence(t *testing.T) {
	const sessions = 3
	local, remote := backends(t, sessions)
	caps, err := local.Caps(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	items := make([]ga.BatchItem, lab.MaxMeasureParts+44)
	for i := range items {
		items[i] = ga.BatchItem{Seq: caps.Pool().RandomSequence(rng, 8)}
	}
	items[5], items[17] = items[3], items[3] // clones a batch dedups
	em := backend.MeasurerSpec{Domain: platform.DomainA72, Metric: backend.MetricEM, ActiveCores: 2, Samples: 3}
	droop := em
	droop.Metric, droop.DSOSeed = backend.MetricDroop, 5
	ptp := droop
	ptp.Metric = backend.MetricPtp
	for _, tc := range []struct {
		spec        backend.MeasurerSpec
		items       []ga.BatchItem
		parallelism int
		verb        string
		requests    int64
	}{
		{em, items[:40], 1, "MEASURE", 1},
		{em, items[:40], 2, "MEASURE", 2},
		{em, items[:40], 8, "MEASURE", sessions},
		{em, items, 1, "MEASURE", 2},
		{droop, items[:6], 8, "MEASURE", sessions},
		{ptp, items[:6], 2, "MEASURE", 2},
		{droop, items[:40], 1, "MEASURE", 1},
		{ptp, items[:40], 8, "MEASURE", sessions},
	} {
		lm, err := local.Measurer(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := remote.Measurer(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		pop := make([]ga.Individual, len(tc.items))
		for i, it := range tc.items {
			pop[i].Seq = it.Seq
		}
		if err := ga.EvaluatePopulation(pop, lm, tc.parallelism); err != nil {
			t.Fatal(err)
		}
		want := make([]ga.BatchResult, len(pop))
		for i, in := range pop {
			want[i] = ga.BatchResult{Fitness: in.Fitness, DominantHz: in.DominantHz}
		}
		before := remote.TransportStats().Commands[tc.verb].Calls
		got, err := rm.(ga.BatchMeasurer).MeasureBatch(tc.items, tc.parallelism)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s, %d items, parallelism %d", tc.spec.Metric, len(tc.items), tc.parallelism)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: remote batch differs from the local evaluation", name)
		}
		if n := remote.TransportStats().Commands[tc.verb].Calls - before; n != tc.requests {
			t.Fatalf("%s: %d %s requests, want %d", name, n, tc.verb, tc.requests)
		}
		for _, i := range []int{0, 3, 5, len(tc.items) - 1} {
			fit, hz, err := lm.Measure(tc.items[i].Seq)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != (ga.BatchResult{Fitness: fit, DominantHz: hz}) {
				t.Fatalf("%s: item %d differs from a local Measure", name, i)
			}
		}
	}
}

// TestCapabilityError: droop on the voltage-blind A53 must fail with the
// typed error on both backends, before any measurement is attempted.
func TestCapabilityError(t *testing.T) {
	local, remote := backends(t, 1)
	for _, tc := range []struct {
		name string
		be   backend.Backend
	}{{"local", local}, {"remote", remote}} {
		spec := backend.MeasurerSpec{Domain: platform.DomainA53, Metric: backend.MetricDroop, ActiveCores: 4}
		_, err := tc.be.Measurer(spec)
		if err == nil {
			t.Fatalf("%s: droop on a voltage-blind domain succeeded", tc.name)
		}
		if !backend.IsCapabilityError(err) {
			t.Fatalf("%s: error not a *CapabilityError: %v", tc.name, err)
		}
	}
}

// sessionBytes runs the report flow every CLI shares — start a report with
// every core powered, record a sweep and a V_MIN row — and serializes it
// with a pinned timestamp.
func sessionBytes(t *testing.T, be backend.Backend) []byte {
	t.Helper()
	rep, err := session.New(be, platform.DomainA72, 0, time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := backend.ResonanceSweep(be, platform.DomainA72, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetSweep(sw)
	res, _, err := be.Vmin(platform.DomainA72, probeLoad(t, be, platform.DomainA72, 2), 0, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep.AddVmin("probe", res)
	var buf bytes.Buffer
	if err := rep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionReportDeterminism is the satellite acceptance test: the same
// seed and workload must yield byte-identical session.Report JSON from a
// local backend and a remote one, at parallelism 1 and 8.
func TestSessionReportDeterminism(t *testing.T) {
	var reference []byte
	for _, jobs := range []int{1, 8} {
		local, remote := backends(t, jobs)
		lb := sessionBytes(t, local)
		rb := sessionBytes(t, remote)
		if !bytes.Equal(lb, rb) {
			t.Fatalf("-j %d: local and remote reports differ:\n%s\n---\n%s", jobs, lb, rb)
		}
		if reference == nil {
			reference = lb
		} else if !bytes.Equal(reference, lb) {
			t.Fatalf("-j %d report differs from -j 1 report", jobs)
		}
	}
}
