package emnoise

// Whole-campaign property tests for the persistent measurement tier: a
// campaign served from a populated disk store in a fresh "process" (empty
// in-memory caches) must be bit-identical — reflect.DeepEqual on the whole
// campaign result — to the same campaign computed cold, with no store, at
// any parallelism. Corruption anywhere in the store must degrade to
// recomputation, never to a changed result; and two bench instances with
// separate in-memory caches over one store must share each other's work.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/castore"
	"repro/internal/core"
)

// withPersist installs s (which may be nil) as the bench's measurement
// tier — exactly what `-cache-dir` wires up — and restores the
// previous store afterwards.
func withPersist(t *testing.T, s *castore.Store, fn func()) {
	t.Helper()
	prev := core.SetPersistentStore(s)
	defer core.SetPersistentStore(prev)
	fn()
}

func openCampaignStore(t *testing.T) *castore.Store {
	t.Helper()
	s, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPersistentCacheBitIdenticalCampaigns is the store's acceptance
// property: for each campaign shape (resonance sweep, GA hunt, V_MIN
// shmoo) and each parallelism, two runs must agree bit-for-bit — cold (no
// store) and disk-warm (a fresh bench over a store populated by a prior
// run). The store holds finished measurements only: the GA's disk-warm run
// must hit it, while the sweep and the shmoo (which measure through the
// sweep path, not the EM measurement path) must write nothing to it.
func TestPersistentCacheBitIdenticalCampaigns(t *testing.T) {
	sweep := func(jobs int) any {
		plat, err := JunoR2()
		if err != nil {
			t.Fatal(err)
		}
		bench, err := NewBench(plat, 5)
		if err != nil {
			t.Fatal(err)
		}
		bench.Samples = 3
		bench.Parallelism = jobs
		d, err := plat.Domain(DomainA72)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.FastResonanceSweep(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gah := func(jobs int) any {
		return gaRun(t, JunoR2, DomainA72, 2, jobs)
	}
	vminShmoo := func(jobs int) any {
		plat, err := JunoR2()
		if err != nil {
			t.Fatal(err)
		}
		d, err := plat.Domain(DomainA72)
		if err != nil {
			t.Fatal(err)
		}
		w, err := WorkloadByName("probe")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.Build(d.Spec.Pool())
		if err != nil {
			t.Fatal(err)
		}
		tester := NewVminTester(d, 13)
		tester.Parallelism = jobs
		steps := d.ClockSteps()
		clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[len(steps)/4]}
		points, err := tester.Shmoo(Load{Seq: seq, ActiveCores: 2}, clocks)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}

	campaigns := []struct {
		name   string
		run    func(jobs int) any
		stores bool // whether the campaign's readings go through the store
	}{
		{"sweep", sweep, false},
		{"ga", gah, true},
		{"vmin-shmoo", vminShmoo, false},
	}
	for _, jobs := range []int{1, 8} {
		for _, c := range campaigns {
			t.Run(fmt.Sprintf("%s-j%d", c.name, jobs), func(t *testing.T) {
				cold := c.run(jobs)
				var warm any

				s := openCampaignStore(t)
				withPersist(t, s, func() { c.run(jobs) }) // populate
				populated := s.Stats()
				withPersist(t, s, func() { warm = c.run(jobs) })
				st := s.Stats()
				switch {
				case c.stores && populated.Puts == 0:
					t.Fatal("populating run wrote nothing through to the store")
				case c.stores && st.Hits == populated.Hits:
					t.Error("disk-warm run never hit the store")
				case !c.stores && st.Puts != 0:
					t.Errorf("campaign wrote %d entries to the store, want 0", st.Puts)
				}

				if !reflect.DeepEqual(warm, cold) {
					t.Errorf("disk-warm differs from cold:\nwarm %+v\ncold %+v", warm, cold)
				}
			})
		}
	}
}

// TestPersistentCacheCorruptionRecomputes: garbling every published entry
// in a populated store must turn the warm run back into a (correct) cold
// run — entries quarantined, results unchanged.
func TestPersistentCacheCorruptionRecomputes(t *testing.T) {
	run := func() *GAResult { return gaRun(t, JunoR2, DomainA72, 2, 4) }
	want := run()

	dir := t.TempDir()
	s, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withPersist(t, s, func() { run() })

	// Garble every entry: flip one byte in the middle and truncate the odd
	// ones, covering both corruption shapes at campaign scale.
	var garbled int
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".e") {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if garbled%2 == 0 {
			buf[len(buf)/2] ^= 0x5a
		} else {
			buf = buf[:len(buf)/2]
		}
		garbled++
		return os.WriteFile(path, buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if garbled == 0 {
		t.Fatal("populated store holds no entries")
	}

	var got *GAResult
	withPersist(t, s, func() { got = run() })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GA run over a corrupted store differs from the clean result")
	}
	st := s.Stats()
	if st.Corrupt == 0 {
		t.Errorf("no corruption detected across %d garbled entries: %+v", garbled, st)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(ents) == 0 {
		t.Errorf("no quarantined entries (err %v)", err)
	}
}

// TestPersistentStoreSharedAcrossBenches: two bench instances with
// separate in-memory caches (fresh platform, fresh bench, reset trace
// cache) over one store — the second must see the first's measurements and
// reproduce the campaign bit-identically without measuring anything.
func TestPersistentStoreSharedAcrossBenches(t *testing.T) {
	runGA := func() (*GAResult, *core.Bench) {
		plat, err := JunoR2()
		if err != nil {
			t.Fatal(err)
		}
		bench, err := NewBench(plat, 3)
		if err != nil {
			t.Fatal(err)
		}
		bench.Samples = 3
		d, err := plat.Domain(DomainA72)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultGAConfig(d.Spec.Pool())
		cfg.PopulationSize = 12
		cfg.Generations = 6
		cfg.Seed = 21
		cfg.Parallelism = 4
		res, err := RunGA(cfg, bench.EMMeasurer(d, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, bench
	}

	s := openCampaignStore(t)
	var first, second *GAResult
	var secondStats core.BatchStats
	withPersist(t, s, func() { first, _ = runGA() })
	withPersist(t, s, func() {
		var b *core.Bench
		second, b = runGA()
		secondStats = b.BatchStats()
	})

	if !reflect.DeepEqual(first.Best, second.Best) ||
		!reflect.DeepEqual(first.History, second.History) ||
		!reflect.DeepEqual(first.FinalPopulation, second.FinalPopulation) {
		t.Error("second bench's campaign differs from the first's")
	}
	if secondStats.Measured != 0 {
		t.Errorf("second bench re-measured %d items despite a fully populated store (%+v)",
			secondStats.Measured, secondStats)
	}
	if secondStats.MemoHits == 0 {
		t.Errorf("second bench reported no memo traffic: %+v", secondStats)
	}
	if s.Stats().Hits == 0 {
		t.Error("store reports no hits across the second campaign")
	}
}
