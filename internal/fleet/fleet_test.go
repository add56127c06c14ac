package fleet_test

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
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
	want, err := single.ResonanceSweep(testDomain, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: localRig(t)},
		fleet.Rig{Name: "remote", Backend: remote})
	got, err := f.ResonanceSweep(testDomain, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded fleet sweep differs from single-backend sweep")
	}
}

// TestFleetVminAndShmooMatchSingle checks the V_MIN surfaces: sharded
// shmoo lattices and workload campaigns agree with the single-backend
// answers (modulo Trials, which the fleet strips for layout independence).
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

	wantShmoo, err := single.VminShmoo(testDomain, loads[0], 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	gotShmoo, err := f.VminShmoo(testDomain, loads[0], 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShmoo, wantShmoo) {
		t.Fatal("fleet shmoo differs from single-backend shmoo")
	}

	grid, err := f.ShmooGrid(testDomain, loads, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		want, err := single.VminShmoo(testDomain, l, 3, clocks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grid[i], want) {
			t.Fatalf("shmoo grid row %d differs from single-backend shmoo", i)
		}
	}

	results, runs, err := f.VminMany(testDomain, loads, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loads {
		wres, wruns, err := single.Vmin(testDomain, l, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		wres.Trials = nil // fleet results are layout-independent
		if !reflect.DeepEqual(results[i], wres) || !reflect.DeepEqual(runs[i], wruns) {
			t.Fatalf("fleet vmin of load %d differs from single-backend search", i)
		}
	}
}

// killerRig forwards to the wrapped backend until its countdown reaches
// zero, then assassinates the rig's transport (closing the chaos proxy, so
// reconnects are refused) and lets the in-flight call fail naturally.
type killerRig struct {
	backend.Backend
	countdown atomic.Int64
	kill      func()
}

func (k *killerRig) tick() {
	if k.countdown.Add(-1) == 0 {
		k.kill()
	}
}

func (k *killerRig) SweepPoint(domain string, cores, samples int, clockHz float64) (*core.SweepPoint, error) {
	k.tick()
	return k.Backend.SweepPoint(domain, cores, samples, clockHz)
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
	// Both of the doomed rig's slots acquire an item the moment the
	// campaign opens (the queue is far deeper than the slot count), so a
	// countdown of 2 is guaranteed to fire while shards are in flight.
	killer := &killerRig{Backend: remote, kill: func() { _ = proxy.Close() }}
	killer.countdown.Store(2)

	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: localRig(t)},
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

// TestFleetChaosKillMidSweep kills a rig partway through a sharded clock
// grid; the surviving rig must finish the sweep with the single-backend
// answer.
func TestFleetChaosKillMidSweep(t *testing.T) {
	single := localRig(t)
	want, err := single.ResonanceSweep(testDomain, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	remote, proxy := remoteRig(t)
	killer := &killerRig{Backend: remote, kill: func() { _ = proxy.Close() }}
	killer.countdown.Store(2)

	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "local", Backend: localRig(t)},
		fleet.Rig{Name: "doomed", Backend: killer})
	got, err := f.ResonanceSweep(testDomain, 2, 0)
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

func (c *countingRig) Vmin(domain string, load platform.Load, seed int64, repeats int) (*vmin.Result, []float64, error) {
	c.calls.Add(1)
	return c.Backend.Vmin(domain, load, seed, repeats)
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
		vres, _, err := f.Vmin(testDomain, load, 3, 2)
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
// torn one.
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
	defer re.Close()
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
	wantSweep, err := single.ResonanceSweep(testDomain, 2, 0)
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
	wantShmoo, err := single.VminShmoo(testDomain, load, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	wantVmin, wantRuns, err := single.Vmin(testDomain, load, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantVmin.Trials = nil // fleet results are layout-independent

	remote, _ := remoteRig(t)
	f := newFleet(t, fleet.Options{Slots: 2},
		fleet.Rig{Name: "l0", Backend: localRig(t)},
		fleet.Rig{Name: "l1", Backend: localRig(t)},
		fleet.Rig{Name: "remote", Backend: remote})

	gotSweep, err := f.ResonanceSweep(testDomain, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Fatal("3-rig sweep differs from single-backend sweep")
	}
	gotShmoo, err := f.VminShmoo(testDomain, load, 3, clocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShmoo, wantShmoo) {
		t.Fatal("3-rig shmoo differs from single-backend shmoo")
	}
	if !reflect.DeepEqual(gotShmoo[0], gotShmoo[2]) {
		t.Fatal("duplicate clock requests diverged across the shard layout")
	}
	results, runs, err := f.VminMany(testDomain, []platform.Load{load}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], wantVmin) || !reflect.DeepEqual(runs[0], wantRuns) {
		t.Fatal("3-rig vmin differs from single-backend search")
	}
}
