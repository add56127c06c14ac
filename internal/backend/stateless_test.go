package backend_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/platform"
	"repro/internal/vmin"
)

// gatedResults is what one powered-core count yields on a backend: an em
// generation, a three-clock sweep and a V_MIN search.
type gatedResults struct {
	em    []ga.BatchResult
	sweep []*core.SweepPoint
	vmin  *vmin.Result
	runs  []float64
}

// measureGated runs the three requests on the A53 with powered cores
// powered and one core active.
func measureGated(be backend.Backend, powered int, items []ga.BatchItem, clocks []float64, load platform.Load) (gatedResults, error) {
	var r gatedResults
	m, err := be.Measurer(backend.MeasurerSpec{Domain: platform.DomainA53, Metric: backend.MetricEM,
		ActiveCores: 1, PoweredCores: powered, Samples: 3})
	if err != nil {
		return r, err
	}
	if r.em, err = m.(ga.BatchMeasurer).MeasureBatch(items, 2); err != nil {
		return r, err
	}
	if r.sweep, err = be.Sweep(platform.DomainA53, 1, powered, 3, clocks); err != nil {
		return r, err
	}
	r.vmin, r.runs, err = be.Vmin(platform.DomainA53, load, powered, 4, 1)
	return r, err
}

// TestPoweredCoresPerRequest: powered cores are an argument of each
// request, so goroutines sharing one pooled Remote and one fleet of two
// Remote rigs can interleave em, sweep and V_MIN requests at every
// powered-core count of the A53, and each result equals a Local's at that
// count bit for bit. With powered cores as rig state, one goroutine's
// setting would leak into another's measurement.
func TestPoweredCoresPerRequest(t *testing.T) {
	lb := newBench(t)
	local, err := backend.NewLocal(lb)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := backend.NewRemote(startDaemon(t), 4, identityOpts())
	if err != nil {
		t.Fatal(err)
	}
	remote.Samples = lb.Samples
	t.Cleanup(func() { _ = remote.Close() })
	var rigs []fleet.Rig
	for _, name := range []string{"rig1", "rig2"} {
		rig, err := backend.NewRemote(startDaemon(t), 2, identityOpts())
		if err != nil {
			t.Fatal(err)
		}
		rig.Samples = lb.Samples
		rigs = append(rigs, fleet.Rig{Name: name, Backend: rig})
	}
	fl, err := fleet.New(rigs, fleet.Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })

	caps, err := local.Caps(platform.DomainA53)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	items := make([]ga.BatchItem, 4)
	for i := range items {
		items[i] = ga.BatchItem{Seq: caps.Pool().RandomSequence(rng, 8)}
	}
	grid := caps.ClockSteps()
	clocks := []float64{grid[len(grid)-1], grid[0], grid[len(grid)/2]}
	load := probeLoad(t, local, platform.DomainA53, 1)

	want := make(map[int]gatedResults, caps.TotalCores)
	for n := 1; n <= caps.TotalCores; n++ {
		if want[n], err = measureGated(local, n, items, clocks, load); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(want[1].em, want[caps.TotalCores].em) {
		t.Fatal("1 and all powered cores measure alike; the test is vacuous")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*caps.TotalCores)
	for _, be := range []backend.Backend{remote, fl} {
		for n := caps.TotalCores; n >= 1; n-- {
			wg.Add(1)
			go func(be backend.Backend, n int) {
				defer wg.Done()
				got, err := measureGated(be, n, items, clocks, load)
				if err == nil && !reflect.DeepEqual(got, want[n]) {
					err = fmt.Errorf("differs from a Local with %d powered", n)
				}
				if err != nil {
					errs <- fmt.Errorf("%T, %d powered: %w", be, n, err)
				}
			}(be, n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
