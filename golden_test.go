package emnoise

// Golden-output fences: small seeded runs are digested and compared
// against checked-in goldens, so a change that moves every evaluation path
// together (and therefore passes every path-vs-path comparison) still
// shows up. TestGAGolden pins the GA virus search on the Juno A72 cluster;
// TestVoltageGAGolden pins the scope-driven GAs (OC-DSO droop on the A72,
// bench-scope peak-to-peak on the Athlon), whose scope noise is keyed by
// the captured rail; TestIslandGolden pins the island-model GA, whose
// islands breed, migrate and share one batch per generation;
// TestSweepGolden pins the batched resonance sweep and a probe shmoo,
// which reach the analyzer with other bands than the GA does. Regenerate
// after an intentional change with:
//
//	go test -run 'TestGAGolden|TestVoltageGAGolden|TestIslandGolden|TestSweepGolden' -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

const (
	gaGoldenPath        = "testdata/golden/ga.json"
	voltageGAGoldenPath = "testdata/golden/voltage_ga.json"
	islandGoldenPath    = "testdata/golden/islands.json"
	sweepGoldenPath     = "testdata/golden/sweep.json"
)

// digestFloats folds the IEEE-754 bits of each value into h, little-endian.
func digestFloats(h hash.Hash64, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		bits := math.Float64bits(f)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
}

// checkGolden compares got against the golden file at path, or rewrites
// the file under -update.
func checkGolden[T comparable](t *testing.T, path string, got map[string]T) {
	t.Helper()
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]T
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, test produces %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, path)
			continue
		}
		if g != w {
			t.Errorf("%s: output moved:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
}

// gaGolden is one seed's pinned GA outcome. Digest covers every
// generation's BestFitness, MeanFitness and BestDominant bits plus the
// final best sequence; the readable fields make a moved golden easy to
// review in a diff.
type gaGolden struct {
	Digest         string  `json:"digest"`
	BestFitness    float64 `json:"best_fitness"`
	BestDominantHz float64 `json:"best_dominant_hz"`
	BestProgram    string  `json:"best_program"`
}

// gaGoldenRun runs the fenced GA: juno-r2/A72, 2 active cores, population
// 16, 6 generations, serial evaluation.
func gaGoldenRun(t *testing.T, seed int64) gaGolden {
	t.Helper()
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	return goldenGARun(t, plat, DomainA72, seed, func(b *Bench, d *Domain) Measurer {
		return b.EMMeasurer(d, 2)
	})
}

// goldenGAConfig is the fenced GA on one domain of plat: population 16,
// 6 generations, serial evaluation, against the measurer fitness builds
// on a bench seeded benchSeed at 3 samples.
func goldenGAConfig(t *testing.T, plat *Platform, domain string, benchSeed, seed int64,
	fitness func(*Bench, *Domain) Measurer) (GAConfig, Measurer) {
	t.Helper()
	bench, err := NewBench(plat, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(domain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(d.Spec.Pool())
	cfg.PopulationSize = 16
	cfg.Generations = 6
	cfg.Seed = seed
	cfg.Parallelism = 1
	return cfg, fitness(bench, d)
}

// goldenGARun runs the fenced GA and digests the outcome.
func goldenGARun(t *testing.T, plat *Platform, domain string, seed int64,
	fitness func(*Bench, *Domain) Measurer) gaGolden {
	t.Helper()
	cfg, m := goldenGAConfig(t, plat, domain, 3, seed, fitness)
	res, err := RunGA(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return digestGA(cfg.Pool, res)
}

// digestGA folds every generation's BestFitness, MeanFitness and
// BestDominant bits plus the best program into a gaGolden.
func digestGA(pool *Pool, res *GAResult) gaGolden {
	h := fnv.New64a()
	for _, g := range res.History {
		digestFloats(h, g.BestFitness, g.MeanFitness, g.BestDominant)
	}
	prog := FormatProgram(pool, res.Best.Seq)
	h.Write([]byte(prog))
	return gaGolden{
		Digest:         fmt.Sprintf("%016x", h.Sum64()),
		BestFitness:    res.Best.Fitness,
		BestDominantHz: res.Best.DominantHz,
		BestProgram:    prog,
	}
}

func TestGAGolden(t *testing.T) {
	got := map[string]gaGolden{}
	for _, seed := range []int64{1, 7} {
		got[fmt.Sprintf("juno-r2/A72/cores=2/pop=16/gens=6/seed=%d", seed)] = gaGoldenRun(t, seed)
	}
	checkGolden(t, gaGoldenPath, got)
}

// TestVoltageGAGolden pins the direct-voltage fitness: a droop GA through
// the Juno A72's OC-DSO and a ptp GA through the Athlon's bench scope, both
// built by Bench.Measurer, which picks the scope from the domain's voltage
// visibility and seeds it (seed+20 and seed+21). Both scopes draw their
// noise from a hash of the captured rail, so a single moved bit of the
// steady-state die voltage shows up.
func TestVoltageGAGolden(t *testing.T) {
	juno, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	amd, err := AMDDesktop()
	if err != nil {
		t.Fatal(err)
	}
	voltage := func(metric BackendMetric, cores int, dsoSeed int64) func(*Bench, *Domain) Measurer {
		return func(b *Bench, d *Domain) Measurer {
			m, err := b.Measurer(d, metric, cores, dsoSeed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	got := map[string]gaGolden{}
	for _, seed := range []int64{1, 7} {
		got[fmt.Sprintf("juno-r2/A72/droop/oc-dso/cores=2/pop=16/gens=6/seed=%d", seed)] = goldenGARun(t, juno, DomainA72, seed,
			voltage(MetricDroop, 2, seed+20))
		got[fmt.Sprintf("amd-desktop/Athlon/ptp/bench-scope/cores=4/pop=16/gens=6/seed=%d", seed)] = goldenGARun(t, amd, DomainAthlon, seed,
			voltage(MetricPtp, 4, seed+21))
	}
	checkGolden(t, voltageGAGoldenPath, got)
}

// TestRunIsIslandOfOne: RunGA is RunIslandGA with one island, bit for bit,
// on TestGAGolden's configs, even at a migration interval that would
// migrate a ring of two.
func TestRunIsIslandOfOne(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	em := func(b *Bench, d *Domain) Measurer { return b.EMMeasurer(d, 2) }
	for _, seed := range []int64{1, 7} {
		cfg, m := goldenGAConfig(t, plat, DomainA72, 3, seed, em)
		run, err := RunGA(cfg, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		isl, err := RunIslandGA(IslandGAConfig{Base: cfg, Islands: 1, MigrationInterval: 2, Migrants: 2}, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.Best, isl.Best) {
			t.Errorf("seed %d: best differs:\nRunGA       %+v\nRunIslandGA %+v", seed, run.Best, isl.Best)
		}
		if !reflect.DeepEqual(run.History, isl.History) {
			t.Errorf("seed %d: history differs", seed)
		}
		if !reflect.DeepEqual(run.FinalPopulation, isl.FinalPopulation) {
			t.Errorf("seed %d: final population differs", seed)
		}
	}
}

// islandGoldenRun runs a serial island GA on the Juno A72 (population 12,
// 8 generations, 2 migrants, bench and GA seeded alike) and digests the
// winning island.
func islandGoldenRun(t *testing.T, seed int64, cfg IslandGAConfig,
	fitness func(*Bench, *Domain) Measurer) gaGolden {
	t.Helper()
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	var m Measurer
	cfg.Base, m = goldenGAConfig(t, plat, DomainA72, seed, seed, fitness)
	cfg.Base.PopulationSize = 12
	cfg.Base.Generations = 8
	cfg.Migrants = 2
	res, err := RunIslandGA(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return digestGA(cfg.Base.Pool, res)
}

// TestIslandGolden pins the island-model GA: three em islands migrating
// every 2 generations at seeds 1 and 7, and the droop islands of
// `gahunt -islands 3 -metric droop -pop 12 -gens 8 -samples 3 -seed 2`
// (bench and OC-DSO seeded 2, 2 active cores, a migration every
// generation).
func TestIslandGolden(t *testing.T) {
	got := map[string]gaGolden{}
	for _, seed := range []int64{1, 7} {
		got[fmt.Sprintf("juno-r2/A72/cores=2/islands=3/interval=2/pop=12/gens=8/seed=%d", seed)] = islandGoldenRun(t, seed,
			IslandGAConfig{Islands: 3, MigrationInterval: 2},
			func(b *Bench, d *Domain) Measurer { return b.EMMeasurer(d, 2) })
	}
	got["juno-r2/A72/droop/oc-dso/cores=2/islands=3/interval=1/pop=12/gens=8/seed=2"] = islandGoldenRun(t, 2,
		IslandGAConfig{Islands: 3, MigrationInterval: 1},
		func(b *Bench, d *Domain) Measurer {
			m, err := b.Measurer(d, MetricDroop, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		})
	checkGolden(t, islandGoldenPath, got)
}

// sweepGolden is one domain's pinned operating-point campaign. Digest
// covers ResonanceHz, PeakLoopHz, PeakDBm, every sweep point's ClockHz,
// LoopHz and PeakDBm bits (nil points fold as a zero clock), and every
// shmoo point's ClockHz, VminV, MarginV and outcome.
type sweepGolden struct {
	Digest      string  `json:"digest"`
	ResonanceHz float64 `json:"resonance_hz"`
	PeakLoopHz  float64 `json:"peak_loop_hz"`
	Points      int     `json:"points"`
}

// sweepGoldenRun runs the fenced campaign on one domain: a seeded
// SweepBatch over every DVFS step, then a probe-loop shmoo over three
// evenly spread DVFS columns, all serial.
func sweepGoldenRun(t *testing.T, plat *Platform, domain string, active int) sweepGolden {
	t.Helper()
	bench, err := NewBench(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench.Parallelism = 1
	d, err := plat.Domain(domain)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := bench.SweepBatch(d, active, core.SweepClockSteps(d))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AssembleSweep(pts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	digestFloats(h, res.ResonanceHz, res.PeakLoopHz, res.PeakDBm)
	for _, p := range pts {
		if p == nil {
			digestFloats(h, 0)
			continue
		}
		digestFloats(h, p.ClockHz, p.LoopHz, p.PeakDBm)
	}
	probe, err := WorkloadByName("probe")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := probe.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	steps := d.ClockSteps()
	cols := make([]float64, 3)
	for j := range cols {
		cols[j] = steps[j*len(steps)/len(cols)]
	}
	tester := NewVminTester(d, 3)
	tester.Parallelism = 1
	shmoo, err := tester.Shmoo(Load{Seq: seq, ActiveCores: active}, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range shmoo {
		digestFloats(h, p.ClockHz, p.VminV, p.MarginV, float64(p.Outcome))
	}
	return sweepGolden{
		Digest:      fmt.Sprintf("%016x", h.Sum64()),
		ResonanceHz: res.ResonanceHz,
		PeakLoopHz:  res.PeakLoopHz,
		Points:      len(res.Points),
	}
}

func TestSweepGolden(t *testing.T) {
	juno, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	amd, err := AMDDesktop()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]sweepGolden{
		"juno-r2/A53/active=1/seed=3":        sweepGoldenRun(t, juno, DomainA53, 1),
		"amd-desktop/Athlon/active=4/seed=3": sweepGoldenRun(t, amd, DomainAthlon, 4),
	}
	checkGolden(t, sweepGoldenPath, got)
}
