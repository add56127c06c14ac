package emnoise

// Golden-output fence for the GA virus search: a small seeded run on the
// Juno A72 cluster is digested and compared against a checked-in golden,
// so a change that moves every evaluation path together (and therefore
// passes every path-vs-path comparison) still shows up. Regenerate after
// an intentional change with:
//
//	go test -run TestGAGolden -update .

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

const gaGoldenPath = "testdata/golden/ga.json"

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
	bench, err := NewBench(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Spec.Pool()
	cfg := DefaultGAConfig(pool)
	cfg.PopulationSize = 16
	cfg.Generations = 6
	cfg.Seed = seed
	cfg.Parallelism = 1
	res, err := RunGA(cfg, bench.EMMeasurer(d, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	word := func(f float64) {
		var b [8]byte
		bits := math.Float64bits(f)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, g := range res.History {
		word(g.BestFitness)
		word(g.MeanFitness)
		word(g.BestDominant)
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
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(gaGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gaGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(gaGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]gaGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, test produces %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, gaGoldenPath)
			continue
		}
		if g != w {
			t.Errorf("%s: GA output moved:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
}
