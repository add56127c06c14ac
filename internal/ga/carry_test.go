package ga_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
)

// countingBatch counts the individuals a GA submits for measurement.
type countingBatch struct {
	ga.BatchMeasurer
	mu    sync.Mutex
	items int
}

func (c *countingBatch) MeasureBatch(items []ga.BatchItem, parallelism int) ([]ga.BatchResult, error) {
	c.mu.Lock()
	c.items += len(items)
	c.mu.Unlock()
	return c.BatchMeasurer.MeasureBatch(items, parallelism)
}

// carryBench is the simulated A72 bench at analyzer seed 1, 3 samples.
func carryBench(t *testing.T) (*core.Bench, *platform.Domain) {
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
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

// TestCarriedReadingsMatchFreshMeasurement: an individual the GA does not
// resubmit (an elite, a migrant kept as an elite, a child bred unchanged)
// enters its generation with a reading.
// Before every generation of a Run and of a RunIslands on the simulated
// bench, each carried reading must equal, bit for bit, what a measurer on
// a fresh bench reads for the same sequence, and the individuals
// submitted must number population × generations less those carried.
func TestCarriedReadingsMatchFreshMeasurement(t *testing.T) {
	b, d := carryBench(t)
	fb, fd := carryBench(t)
	fresh := fb.EMMeasurer(fd, 2)

	base := ga.DefaultConfig(d.Spec.Pool())
	base.PopulationSize = 10
	base.Generations = 8
	base.SeqLen = 20
	base.Seed = 3
	base.Parallelism = 2

	for _, tc := range []struct {
		name string
		run  func(cfg ga.Config, m ga.Measurer) error
		// generations is how many populations the run measures.
		generations int
	}{
		{"Run", func(cfg ga.Config, m ga.Measurer) error {
			_, err := ga.Run(cfg, m, nil)
			return err
		}, base.Generations},
		{"RunIslands", func(cfg ga.Config, m ga.Measurer) error {
			_, err := ga.RunIslands(ga.IslandConfig{Base: cfg, Islands: 3, MigrationInterval: 4, Migrants: 2}, m, nil)
			return err
		}, 3 * base.Generations},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			carried := 0
			var mismatch []string
			cfg := ga.Observed(base, func(pop []ga.Individual) {
				for _, in := range pop {
					if !ga.Carried(in) {
						continue
					}
					fit, hz, err := fresh.Measure(in.Seq)
					mu.Lock()
					carried++
					if err != nil {
						mismatch = append(mismatch, err.Error())
					} else if math.Float64bits(fit) != math.Float64bits(in.Fitness) ||
						math.Float64bits(hz) != math.Float64bits(in.DominantHz) {
						mismatch = append(mismatch, isa.FormatProgram(d.Spec.Pool(), in.Seq))
					}
					mu.Unlock()
				}
			})
			m := &countingBatch{BatchMeasurer: b.EMMeasurer(d, 2).(ga.BatchMeasurer)}
			if err := tc.run(cfg, m); err != nil {
				t.Fatal(err)
			}
			if len(mismatch) > 0 {
				t.Fatalf("%d carried readings differ from a fresh measurement, first:\n%s", len(mismatch), mismatch[0])
			}
			if carried == 0 {
				t.Fatal("no individual carried its reading; the check is vacuous")
			}
			if want := tc.generations*base.PopulationSize - carried; m.items != want {
				t.Fatalf("submitted %d individuals, want %d × %d - %d carried = %d",
					m.items, tc.generations, base.PopulationSize, carried, want)
			}
		})
	}
}
