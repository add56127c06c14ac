package fleet_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/platform"
)

// TestFleetKeysPinned: a campaign key names every record of a checkpoint
// journal, so a key that moves strands every journal written before it.
// The ga, sweep, vmin and shmoo keys of one spec with every core powered
// are pinned to the values journaled when the powered-core count was rig
// state, and the keys fold the resolved count: powered 0 and powered
// TotalCores journal alike.
func TestFleetKeysPinned(t *testing.T) {
	want := []string{
		"f8bd7da006b7207a", // ga
		"2f4774f89a974791", // sweep
		"f3efa452705a9af0", // vmin
		"0f61316f6129f0ee", // shmoo
	}
	caps, err := localRig(t).Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	for _, powered := range []int{0, caps.TotalCores} {
		if got := journaledKeys(t, powered); !reflect.DeepEqual(got, want) {
			t.Fatalf("powered %d: campaign keys %v, want %v: existing checkpoint journals would all miss",
				powered, got, want)
		}
	}
}

// TestFleetDroopKeyIgnoresSamples: a droop reading never reads the
// analyzer's sample count, so two droop measurers that differ only in
// Samples (3 and 300) journal under one campaign key, and a coordinator
// resumed with the second replays the first one's checkpoint without
// measuring anything.
func TestFleetDroopKeyIgnoresSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "droop.ckpt")
	items := population(t, localRig(t), 6)
	run := func(samples int) ([]ga.BatchResult, int64) {
		ckpt, err := fleet.OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rig := &countingRig{Backend: localRig(t)}
		f := newFleet(t, fleet.Options{Slots: 1, Salt: 7, Checkpoint: ckpt}, fleet.Rig{Name: "local", Backend: rig})
		m, err := f.Measurer(backend.MeasurerSpec{Domain: testDomain, Metric: backend.MetricDroop,
			ActiveCores: 2, Samples: samples, DSOSeed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.(ga.BatchMeasurer).MeasureBatch(items, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil { // flushes the journal
			t.Fatal(err)
		}
		return res, rig.calls.Load()
	}
	first, calls := run(3)
	if calls == 0 {
		t.Fatal("first run measured nothing; the journal cannot have content")
	}
	second, calls := run(300)
	if calls != 0 {
		t.Fatalf("a droop run at 300 samples re-measured %d shards journaled at 3, want 0", calls)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatal("replayed droop results differ from the measured ones")
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		var rec struct{ Campaign string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		keys[rec.Campaign] = true
	}
	if len(keys) != 1 {
		t.Fatalf("droop records journaled under %d campaign keys, want 1", len(keys))
	}
}

// journaledKeys runs one single-item campaign of each kind (ga, sweep,
// vmin, shmoo) through a one-rig fleet with a checkpoint and returns the
// campaign key of each journal record in order.
func journaledKeys(t *testing.T, powered int) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ckpt, err := fleet.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, fleet.Options{Slots: 1, Salt: 0x5eed, Checkpoint: ckpt}, fleet.Rig{Name: "local", Backend: localRig(t)})
	caps, err := f.Caps(testDomain)
	if err != nil {
		t.Fatal(err)
	}
	seq := caps.Pool().RandomSequence(rand.New(rand.NewSource(5)), 24)
	spec := emSpec()
	spec.PoweredCores = powered
	m, err := f.Measurer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.(ga.BatchMeasurer).MeasureBatch([]ga.BatchItem{{Seq: seq}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sweep(testDomain, 2, powered, 3, caps.SweepClockSteps()[:1]); err != nil {
		t.Fatal(err)
	}
	load := platform.Load{Seq: seq, ActiveCores: 2}
	if _, _, err := f.Vmin(testDomain, load, powered, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.VminShmoo(testDomain, load, powered, 3, caps.ClockSteps()[:1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // flushes the journal
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		var rec struct{ Campaign string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Campaign)
	}
	return keys
}

// TestFleetRemoteGenerationOneRoundTrip: a GA generation through a fleet
// with one Remote rig and one slot is one MEASURE request. After the
// construction exchanges (HELLO, INFO and the domain's first CAPS, whose
// record the Remote keeps), three generations send three MEASUREs and no
// other verb.
func TestFleetRemoteGenerationOneRoundTrip(t *testing.T) {
	addr, _ := startDaemon(t)
	remote, err := backend.NewRemote(addr, 1, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	remote.Samples = 3
	f := newFleet(t, fleet.Options{Slots: 1}, fleet.Rig{Name: "remote", Backend: remote})
	defer f.Close()
	m, err := f.Measurer(emSpec())
	if err != nil {
		t.Fatal(err)
	}
	calls := func() map[string]int64 {
		out := make(map[string]int64)
		for verb, cs := range remote.TransportStats().Commands {
			out[verb] = cs.Calls
		}
		return out
	}
	setup := calls()
	if want := map[string]int64{"HELLO": 1, "INFO": 1, "CAPS": 1}; !reflect.DeepEqual(setup, want) {
		t.Fatalf("construction sent %v, want %v", setup, want)
	}
	for gen := 0; gen < 3; gen++ {
		if _, err := m.(ga.BatchMeasurer).MeasureBatch(population(t, remote, 12), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := calls()
	for verb, n := range setup {
		got[verb] -= n
		if got[verb] == 0 {
			delete(got, verb)
		}
	}
	if want := map[string]int64{"MEASURE": 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("three generations sent %v, want %v", got, want)
	}
}
