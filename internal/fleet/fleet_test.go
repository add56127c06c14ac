package fleet_test

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/lab"
	"repro/internal/lab/chaos"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// newBench builds the reference bench: Juno, seed 1, 3-sample averaging —
// the same instrument state behind every rig, local or remote, so a fleet
// of them is observationally one rig.
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

func localRig(t *testing.T) *backend.Local {
	t.Helper()
	b := newBench(t)
	b.Parallelism = 2
	l, err := backend.NewLocal(b)
	if err != nil {
		t.Fatal(err)
	}
	return l
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

// startDaemon serves a reference bench on a loopback port.
func startDaemon(t *testing.T) (string, *lab.Server) {
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
	return ln.Addr().String(), srv
}

// remoteRig dials a fresh daemon through a chaos proxy (fault-free unless
// the test injects) and returns the backend plus the proxy for later
// killing.
func remoteRig(t *testing.T) (*backend.Remote, *chaos.Proxy) {
	t.Helper()
	addr, _ := startDaemon(t)
	proxy, err := chaos.New(addr, chaos.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	r, err := backend.NewRemote(proxy.Addr(), 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	r.Samples = 3
	t.Cleanup(func() { _ = r.Close() })
	return r, proxy
}

func newFleet(t *testing.T, opts fleet.Options, rigs ...fleet.Rig) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(rigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const testDomain = "cortex-a72"

// population builds GA batch items with duplicates mixed in, the shape a
// generation hands MeasureBatch.
func population(t *testing.T, be backend.Backend, n int) []ga.BatchItem {
	t.Helper()
	caps, err := be.Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	items := make([]ga.BatchItem, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, ga.BatchItem{Seq: caps.Pool().RandomSequence(rng, 24)})
	}
	// Exact duplicates: converged clones.
	items[n-1] = ga.BatchItem{Seq: items[0].Seq}
	items[n-2] = ga.BatchItem{Seq: items[1].Seq}
	return items
}

func emSpec() backend.MeasurerSpec {
	return backend.MeasurerSpec{Domain: testDomain, Metric: backend.MetricEM, ActiveCores: 2, Samples: 3}
}

func batchMeasurer(t *testing.T, be backend.Backend) ga.BatchMeasurer {
	t.Helper()
	m, err := be.Measurer(emSpec())
	if err != nil {
		t.Fatal(err)
	}
	bm, ok := m.(ga.BatchMeasurer)
	if !ok {
		t.Fatalf("%T measurer is not a BatchMeasurer", be)
	}
	return bm
}

// TestFleetRejectsMixedPlatforms pins the homogeneity check: the
// determinism argument needs interchangeable rigs, so a juno/amd mix is a
// configuration error at construction, not a placement puzzle at runtime.
func TestFleetRejectsMixedPlatforms(t *testing.T) {
	juno := localRig(t)
	amdPlat, err := platform.AMDDesktop()
	if err != nil {
		t.Fatal(err)
	}
	amdBench, err := core.NewBench(amdPlat, 1)
	if err != nil {
		t.Fatal(err)
	}
	amd, err := backend.NewLocal(amdBench)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.New([]fleet.Rig{{Name: "a", Backend: juno}, {Name: "b", Backend: amd}}, fleet.Options{}); err == nil {
		t.Fatal("mixed-platform fleet accepted")
	}
}

// TestFleetGAMatchesSingle is the tentpole determinism property for the
// GA path: a generation evaluated by a fleet — any rig mix, any slot
// count, any steal schedule — is bit-identical to the same generation on
// one local backend.
func TestFleetGAMatchesSingle(t *testing.T) {
	single := localRig(t)
	items := population(t, single, 16)
	want, err := batchMeasurer(t, single).MeasureBatch(items, 2)
	if err != nil {
		t.Fatal(err)
	}

	remote, _ := remoteRig(t)
	layouts := []struct {
		name  string
		slots int
		rigs  []fleet.Rig
	}{
		{"two-local-slots1", 1, []fleet.Rig{{Name: "l0", Backend: localRig(t)}, {Name: "l1", Backend: localRig(t)}}},
		{"two-local-slots4", 4, []fleet.Rig{{Name: "l0", Backend: localRig(t)}, {Name: "l1", Backend: localRig(t)}}},
		{"local+remote", 2, []fleet.Rig{{Name: "local", Backend: localRig(t)}, {Name: "remote", Backend: remote}}},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			f := newFleet(t, fleet.Options{Slots: lay.slots}, lay.rigs...)
			got, err := batchMeasurer(t, f).MeasureBatch(items, lay.slots)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("fleet generation differs from single-backend generation")
			}
		})
	}
}

// TestFleetSweepMatchesSingle checks the sharded fast sweep against the
// single-backend sweep, bit for bit.
func TestFleetSweepMatchesSingle(t *testing.T) {
	single := localRig(t)
	want, err := backend.ResonanceSweep(single, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: localRig(t)},
		fleet.Rig{Name: "remote", Backend: remote})
	got, err := backend.ResonanceSweep(f, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded fleet sweep differs from single-backend sweep")
	}
}

// TestFleetVminAndShmooMatchSingle checks the V_MIN surfaces: sharded
// shmoo lattices and workload campaigns agree with the single-backend
// answers, whole results compared.
func TestFleetVminAndShmooMatchSingle(t *testing.T) {
	single := localRig(t)
	caps, err := single.Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	loads := []platform.Load{
		{Seq: caps.Pool().RandomSequence(rng, 24), ActiveCores: 2},
		{Seq: caps.Pool().RandomSequence(rng, 24), ActiveCores: 2},
	}
	steps := caps.ClockSteps()
	clocks := []float64{steps[len(steps)-1], steps[len(steps)/2]}

	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: localRig(t)},
		fleet.Rig{Name: "remote", Backend: remote})

	wantShmoo, err := single.VminShmoo(testDomain, loads[0], 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	gotShmoo, err := f.VminShmoo(testDomain, loads[0], 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShmoo, wantShmoo) {
		t.Fatal("fleet shmoo differs from single-backend shmoo")
	}

	grid, err := f.ShmooGrid(testDomain, loads, 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		want, err := single.VminShmoo(testDomain, l, 0, 3, clocks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grid[i], want) {
			t.Fatalf("shmoo grid row %d differs from single-backend shmoo", i)
		}
	}

	results, runs, err := f.VminMany(testDomain, loads, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		wres, wruns, err := single.Vmin(testDomain, l, 0, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], wres) || !reflect.DeepEqual(runs[i], wruns) {
			t.Fatalf("fleet vmin of load %d differs from single-backend search", i)
		}
	}
}

// killerRig assassinates the rig's transport (closing the chaos proxy, so
// reconnects are refused) once its countdown of calls has started, and
// holds every call until then, so each in-flight call fails naturally.
// The same gate holds the surviving rig (gatedRig): otherwise a fast
// survivor could drain the queue before the doomed rig's slots all took
// an item, and the kill would never fire.
type killerRig struct {
	backend.Backend
	countdown atomic.Int64
	kill      func()
	gate      chan struct{} // closed at the kill
}

func newKillerRig(b backend.Backend, kill func(), countdown int64) *killerRig {
	k := &killerRig{Backend: b, kill: kill, gate: make(chan struct{})}
	k.countdown.Store(countdown)
	return k
}

func (k *killerRig) tick() {
	if k.countdown.Add(-1) == 0 {
		k.kill()
		close(k.gate)
	}
	<-k.gate
}

func (k *killerRig) Sweep(domain string, cores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	k.tick()
	return k.Backend.Sweep(domain, cores, powered, samples, clocks)
}

type killerMeasurer struct {
	k *killerRig
	m ga.Measurer
}

func (km killerMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	km.k.tick()
	return km.m.Measure(seq)
}

func (k *killerRig) Measurer(spec backend.MeasurerSpec) (ga.Measurer, error) {
	m, err := k.Backend.Measurer(spec)
	if err != nil {
		return nil, err
	}
	return killerMeasurer{k: k, m: m}, nil
}

// gatedRig holds every measurement until gate closes.
type gatedRig struct {
	backend.Backend
	gate <-chan struct{}
}

func (g *gatedRig) Sweep(domain string, cores, powered, samples int, clocks []float64) ([]*core.SweepPoint, error) {
	<-g.gate
	return g.Backend.Sweep(domain, cores, powered, samples, clocks)
}

type gatedMeasurer struct {
	gate <-chan struct{}
	m    ga.Measurer
}

func (gm gatedMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	<-gm.gate
	return gm.m.Measure(seq)
}

func (g *gatedRig) Measurer(spec backend.MeasurerSpec) (ga.Measurer, error) {
	m, err := g.Backend.Measurer(spec)
	if err != nil {
		return nil, err
	}
	return gatedMeasurer{gate: g.gate, m: m}, nil
}

// TestFleetChaosKillMidGeneration is the acceptance gate: a rig dies
// partway through a GA generation (its proxy closed and daemon shut down
// after a few measurements), and the campaign must fail over — requeueing
// the dead rig's shards onto the survivor — and still produce the exact
// single-backend result.
func TestFleetChaosKillMidGeneration(t *testing.T) {
	single := localRig(t)
	items := population(t, single, 16)
	want, err := batchMeasurer(t, single).MeasureBatch(items, 2)
	if err != nil {
		t.Fatal(err)
	}

	remote, proxy := remoteRig(t)
	// The kill fires once both of the doomed rig's slots hold an item, and
	// the local rig measures nothing before it, so both items are in
	// flight when the rig dies whatever the scheduling.
	killer := newKillerRig(remote, func() { _ = proxy.Close() }, 2)

	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: &gatedRig{Backend: localRig(t), gate: killer.gate}},
		fleet.Rig{Name: "doomed", Backend: killer})
	got, err := batchMeasurer(t, f).MeasureBatch(items, 2)
	if err != nil {
		t.Fatalf("campaign failed instead of failing over: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-failover generation differs from single-backend generation")
	}
	if f.LiveRigs() != 1 {
		t.Fatalf("%d live rigs after the kill, want 1", f.LiveRigs())
	}
}

// TestFleetChaosKillMidChunk: a one-slot fleet sends its remote rig the
// whole generation as one MEASURE, and the rig's stream dies after the
// fourth reply line on every retry. The four measured items complete and
// journal while the rest fail with the rig, so a coordinator resumed on
// the journal measures only the others, and the generation still equals
// the single backend's.
func TestFleetChaosKillMidChunk(t *testing.T) {
	const cut, salt = 4, 7
	single := localRig(t)
	items := population(t, single, 16)
	want, err := batchMeasurer(t, single).MeasureBatch(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	addr, _ := startDaemon(t)
	proxy, err := chaos.New(addr, chaos.Config{Seed: 1, DropAfter: cut})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	doomed, err := backend.NewRemote(proxy.Addr(), 1, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	doomed.Samples = 3
	t.Cleanup(func() { _ = doomed.Close() })
	ckpt, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, fleet.Options{Slots: 1, Salt: salt, Checkpoint: ckpt},
		fleet.Rig{Name: "doomed", Backend: doomed})
	if _, err := batchMeasurer(t, f).MeasureBatch(items, 1); err == nil {
		t.Fatal("a rig whose every MEASURE dies mid-reply measured the generation")
	}
	if n := doomed.TransportStats().Commands["MEASURE"].Calls; n != 1 {
		t.Fatalf("%d MEASURE requests, want 1 (its retries aside)", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if ckpt, err = fleet.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	rig := &countingRig{Backend: localRig(t)}
	resumed := newFleet(t, fleet.Options{Slots: 1, Salt: salt, Checkpoint: ckpt},
		fleet.Rig{Name: "local", Backend: rig})
	defer resumed.Close()
	got, err := batchMeasurer(t, resumed).MeasureBatch(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed generation differs from single-backend generation")
	}
	// 16 items, two of them duplicates: 14 shards, of which the cut
	// stream delivered the first four.
	if n := rig.calls.Load(); n != 14-cut {
		t.Fatalf("resumed coordinator measured %d shards, want %d", n, 14-cut)
	}
}

// TestFleetOneSlotSendsOneRequest: a one-rig, one-slot fleet hands its
// slot the whole pending queue as one chunk, so a remote rig measures a
// generation with a single MEASURE.
func TestFleetOneSlotSendsOneRequest(t *testing.T) {
	single := localRig(t)
	items := population(t, single, 16)
	want, err := batchMeasurer(t, single).MeasureBatch(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 1}, fleet.Rig{Name: "remote", Backend: remote})
	got, err := batchMeasurer(t, f).MeasureBatch(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet generation differs from single-backend generation")
	}
	if n := remote.TransportStats().Commands["MEASURE"].Calls; n != 1 {
		t.Fatalf("%d MEASURE requests for one generation, want 1", n)
	}
}

// TestFleetChaosKillMidSweep kills a rig partway through a sharded clock
// grid; the surviving rig must finish the sweep with the single-backend
// answer.
func TestFleetChaosKillMidSweep(t *testing.T) {
	single := localRig(t)
	want, err := backend.ResonanceSweep(single, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	remote, proxy := remoteRig(t)
	killer := newKillerRig(remote, func() { _ = proxy.Close() }, 2)

	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: &gatedRig{Backend: localRig(t), gate: killer.gate}},
		fleet.Rig{Name: "doomed", Backend: killer})
	got, err := backend.ResonanceSweep(f, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatalf("sweep failed instead of failing over: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-failover sweep differs from single-backend sweep")
	}
	if f.LiveRigs() != 1 {
		t.Fatalf("%d live rigs after the kill, want 1", f.LiveRigs())
	}
}

// countingRig counts the measurements that actually reach the wrapped
// backend, so resume tests can prove shards were replayed, not re-run.
type countingRig struct {
	backend.Backend
	calls atomic.Int64
}

type countingMeasurer struct {
	c *countingRig
	m ga.Measurer
}

func (cm countingMeasurer) Measure(seq []isa.Inst) (float64, float64, error) {
	cm.c.calls.Add(1)
	return cm.m.Measure(seq)
}

func (c *countingRig) Measurer(spec backend.MeasurerSpec) (ga.Measurer, error) {
	m, err := c.Backend.Measurer(spec)
	if err != nil {
		return nil, err
	}
	return countingMeasurer{c: c, m: m}, nil
}

func (c *countingRig) Vmin(domain string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error) {
	c.calls.Add(1)
	return c.Backend.Vmin(domain, load, powered, seed, repeats)
}

// unevenRig is a countingRig whose V_MIN runs on some loads are slow.
type unevenRig struct {
	*countingRig
	slow map[uint64]bool
}

func (u *unevenRig) Vmin(domain string, load platform.Load, powered int, seed int64, repeats int) (*vmin.Result, []float64, error) {
	if u.slow[load.Hash()] {
		time.Sleep(100 * time.Millisecond)
	}
	return u.countingRig.Vmin(domain, load, powered, seed, repeats)
}

// TestFleetVminStealsOnlyTheTail: two one-slot rigs run a V_MIN
// campaign whose first half of loads is slow. Each slot takes one load at
// a time, so the rigs share the slow loads, and a rig that runs dry
// steals only the load still in flight on the other: one replica at most.
// Handing each slot its share of the list up front would leave one rig
// all the slow loads and the other stealing them one by one, measuring
// each twice.
func TestFleetVminStealsOnlyTheTail(t *testing.T) {
	items := population(t, localRig(t), 8)
	loads := make([]platform.Load, 6)
	slow := make(map[uint64]bool)
	for i := range loads {
		loads[i] = platform.Load{Seq: items[i].Seq, ActiveCores: 2}
		if i < len(loads)/2 {
			slow[loads[i].Hash()] = true
		}
	}
	a := &unevenRig{countingRig: &countingRig{Backend: localRig(t)}, slow: slow}
	b := &unevenRig{countingRig: &countingRig{Backend: localRig(t)}, slow: slow}
	f := newFleet(t, fleet.Options{Slots: 1},
		fleet.Rig{Name: "a", Backend: a}, fleet.Rig{Name: "b", Backend: b})
	defer f.Close()
	if _, _, err := f.VminMany(testDomain, loads, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if n := a.calls.Load() + b.calls.Load(); n > int64(len(loads))+1 {
		t.Fatalf("%d V_MIN runs for %d loads on 2 slots, want at most %d", n, len(loads), len(loads)+1)
	}
}

// TestFleetCheckpointResume restarts the coordinator between two identical
// campaigns sharing a journal: the second run must replay every shard —
// zero new measurements — and return byte-identical results, proving the
// JSON round-trip is exact and the content keys match.
func TestFleetCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	items := population(t, localRig(t), 12)
	const salt = 42

	run := func() ([]ga.BatchResult, *vmin.Result, int64) {
		ckpt, err := fleet.OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rig := &countingRig{Backend: localRig(t)}
		f := newFleet(t, fleet.Options{Slots: 2, Salt: salt, Checkpoint: ckpt},
			fleet.Rig{Name: "local", Backend: rig})
		defer f.Close()
		res, err := batchMeasurer(t, f).MeasureBatch(items, 2)
		if err != nil {
			t.Fatal(err)
		}
		load := platform.Load{Seq: items[0].Seq, ActiveCores: 2}
		vres, _, err := f.Vmin(testDomain, load, 0, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res, vres, rig.calls.Load()
	}

	first, firstVmin, firstCalls := run()
	if firstCalls == 0 {
		t.Fatal("first run measured nothing; the journal cannot have content")
	}
	second, secondVmin, secondCalls := run()
	if secondCalls != 0 {
		t.Fatalf("resumed run re-measured %d shards, want 0 (checkpoint replay)", secondCalls)
	}
	if !reflect.DeepEqual(second, first) || !reflect.DeepEqual(secondVmin, firstVmin) {
		t.Fatal("replayed results differ from measured results")
	}

	// A different salt (different run identity: other seed) must miss.
	ckpt, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rig := &countingRig{Backend: localRig(t)}
	f := newFleet(t, fleet.Options{Slots: 2, Salt: salt + 1, Checkpoint: ckpt},
		fleet.Rig{Name: "local", Backend: rig})
	defer f.Close()
	if _, err := batchMeasurer(t, f).MeasureBatch(items, 2); err != nil {
		t.Fatal(err)
	}
	if rig.calls.Load() == 0 {
		t.Fatal("campaign with a different salt replayed another run's shards")
	}
}

// TestCheckpointToleratesTornTail pins crash recovery: a journal whose
// final line was cut mid-write must load every intact record and drop the
// torn one, and the first record journaled after that recovery must
// survive the next restart instead of being glued onto the torn fragment.
func TestCheckpointToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	ckpt, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Add(1, 2, map[string]float64{"x": 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Add(1, 3, map[string]float64{"x": 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"campaign":"0000000000000001","item":"00000000000`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	re, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2 (torn tail dropped)", re.Len())
	}
	var out map[string]float64
	if !re.Lookup(1, 2, &out) || out["x"] != 1.5 {
		t.Fatal("intact record did not replay")
	}
	if re.Lookup(1, 4, &out) {
		t.Fatal("phantom record replayed")
	}
	if err := re.Add(1, 5, map[string]float64{"x": 3.5}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Lookup(1, 5, &out) || out["x"] != 3.5 {
		_, _, dropped := again.Stats()
		t.Fatalf("record journaled after the torn tail was lost (%d records, %d dropped)", again.Len(), dropped)
	}
	if again.Len() != 3 {
		t.Fatalf("reloaded %d records, want 3", again.Len())
	}
}

// TestFleetCapabilityPlacement pins capability-aware placement at its
// root: a droop measurer request on a voltage-blind domain fails with the
// typed *CapabilityError instead of being routed anywhere.
func TestFleetCapabilityPlacement(t *testing.T) {
	single := localRig(t)
	f := newFleet(t, fleet.Options{Slots: 1}, fleet.Rig{Name: "local", Backend: localRig(t)})
	blind := ""
	for _, dom := range single.Domains() {
		caps, err := single.Caps(dom)
		if err != nil {
			t.Fatal(err)
		}
		if caps.DSOKind == "" {
			blind = dom
			break
		}
	}
	if blind == "" {
		t.Skip("no voltage-blind domain on this platform")
	}
	_, err := f.Measurer(backend.MeasurerSpec{Domain: blind, Metric: backend.MetricDroop, ActiveCores: 1, Samples: 3})
	if !backend.IsCapabilityError(err) {
		t.Fatalf("droop on voltage-blind domain: %v, want *CapabilityError", err)
	}
}

// TestFleetThreeRigShardLayout pins the batched campaign paths through a
// wider shard surface: three rigs (two local, one remote daemon behind a
// chaos proxy) carve up the sweep grid and a shmoo lattice with duplicate
// clock requests. Every rig-side point runs the batched evaluators
// (single-point SweepBatch, one-cell Shmoo), so this is the end-to-end
// check that batch economics never leak into values at any shard layout.
func TestFleetThreeRigShardLayout(t *testing.T) {
	single := localRig(t)
	wantSweep, err := backend.ResonanceSweep(single, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := single.Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	load := platform.Load{Seq: caps.Pool().RandomSequence(rng, 24), ActiveCores: 2}
	steps := caps.ClockSteps()
	// Duplicates included: the lattice dedup must survive sharding.
	clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[len(steps)-1]}
	wantShmoo, err := single.VminShmoo(testDomain, load, 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	wantVmin, wantRuns, err := single.Vmin(testDomain, load, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}

	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "l0", Backend: localRig(t)},
		fleet.Rig{Name: "l1", Backend: localRig(t)},
		fleet.Rig{Name: "remote", Backend: remote})

	gotSweep, err := backend.ResonanceSweep(f, testDomain, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Fatal("3-rig sweep differs from single-backend sweep")
	}
	gotShmoo, err := f.VminShmoo(testDomain, load, 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShmoo, wantShmoo) {
		t.Fatal("3-rig shmoo differs from single-backend shmoo")
	}
	if !reflect.DeepEqual(gotShmoo[0], gotShmoo[2]) {
		t.Fatal("duplicate clock requests diverged across the shard layout")
	}
	results, runs, err := f.VminMany(testDomain, []platform.Load{load}, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], wantVmin) || !reflect.DeepEqual(runs[0], wantRuns) {
		t.Fatal("3-rig vmin differs from single-backend search")
	}
}

// shortShmooProxy forwards a lab session to upstream, except that it
// answers every SHMOO itself with "OK 0" (no points, whatever the clock
// count) after swallowing the request's program part: a daemon whose
// SHMOO replies are short.
func shortShmooProxy(t *testing.T, upstream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", upstream)
			if err != nil {
				client.Close()
				return
			}
			go func() {
				defer server.Close()
				_, _ = io.Copy(client, server)
			}()
			go func() {
				defer client.Close()
				defer server.Close()
				r := bufio.NewReader(client)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if !strings.HasPrefix(line, "SHMOO ") {
						if _, err := io.WriteString(server, line); err != nil {
							return
						}
						continue
					}
					hdr, err := r.ReadString('\n')
					if err != nil {
						return
					}
					lines, err := strconv.Atoi(strings.Fields(hdr)[2])
					if err != nil {
						return
					}
					for i := 0; i < lines; i++ {
						if _, err := r.ReadString('\n'); err != nil {
							return
						}
					}
					if _, err := io.WriteString(client, "OK 0\n"); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// failSignalRig closes failed once a shmoo on it has returned an error.
type failSignalRig struct {
	backend.Backend
	once   sync.Once
	failed chan struct{}
}

func (r *failSignalRig) VminShmoo(domain string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	pts, err := r.Backend.VminShmoo(domain, load, powered, seed, clocks)
	if err != nil {
		r.once.Do(func() { close(r.failed) })
	}
	return pts, err
}

// waitRig holds every shmoo until gate closes.
type waitRig struct {
	backend.Backend
	gate <-chan struct{}
}

func (w *waitRig) VminShmoo(domain string, load platform.Load, powered int, seed int64, clocks []float64) ([]vmin.ShmooPoint, error) {
	<-w.gate
	return w.Backend.VminShmoo(domain, load, powered, seed, clocks)
}

// TestFleetShortShmooReplyCondemnsRig: a rig whose daemon answers a SHMOO
// with fewer points than clocks fails its shard as a malformed reply
// instead of handing the shard fewer points than it indexes. The fleet
// condemns the rig, and the survivor finishes the lattice bit-identical
// to a single backend.
func TestFleetShortShmooReplyCondemnsRig(t *testing.T) {
	single := localRig(t)
	caps, err := single.Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	load := platform.Load{Seq: caps.Pool().RandomSequence(rand.New(rand.NewSource(5)), 24), ActiveCores: 2}
	steps := caps.ClockSteps()
	clocks := []float64{steps[len(steps)-1], steps[len(steps)/2]}
	want, err := single.VminShmoo(testDomain, load, 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}

	addr, _ := startDaemon(t)
	opts := fastOpts()
	opts.MaxAttempts = 2
	short, err := backend.NewRemote(shortShmooProxy(t, addr), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = short.Close() })
	// The survivor holds its shard until the short rig has failed one, so
	// the short rig is sure to take a shard.
	shortRig := &failSignalRig{Backend: short, failed: make(chan struct{})}
	f := newFleet(t, fleet.Options{Slots: 1},
		fleet.Rig{Name: "short", Backend: shortRig},
		fleet.Rig{Name: "local", Backend: &waitRig{Backend: localRig(t), gate: shortRig.failed}})

	got, err := f.VminShmoo(testDomain, load, 0, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if f.LiveRigs() != 1 {
		t.Fatalf("%d live rigs after a short SHMOO reply, want the short rig condemned", f.LiveRigs())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet shmoo %+v, single backend %+v", got, want)
	}
}
