package lab

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPoolCloseUnderLoad is the checkout/Close race regression: Do used to
// block forever on the free channel when Close drained it between Do's
// admission check and its receive. Now checkout selects against the closed
// signal, so a Close under full load lets every in-flight call finish and
// every blocked one return ErrClosed — never a deadlock, never a leaked
// client.
func TestPoolCloseUnderLoad(t *testing.T) {
	addr, _ := startServer(t)
	pool, err := NewPool(addr, 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				err := pool.Do(func(c *Client) error {
					_, _, err := c.Info()
					return err
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the workers saturate checkout
	if err := pool.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers still blocked 10s after Close — checkout deadlock")
	}
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("worker saw %v, want ErrClosed", err)
		}
	}
	if err := pool.Do(func(*Client) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after close = %v, want ErrClosed", err)
	}
}

// TestSweepPointMatchesDirect drives SWEEP one clock at a time and checks
// each wire answer against the bench's own one-clock SweepBatch: same clock grid,
// bit-identical in-band points, and the out-of-band clocks (probe loop
// below the band at low DVFS steps) reported as such rather than faked.
func TestSweepPointMatchesDirect(t *testing.T) {
	addr, bench := startServer(t)
	c, err := DialOptions(addr, identityOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	d, err := bench.Platform.Domain("cortex-a72")
	if err != nil {
		t.Fatal(err)
	}
	steps := core.SweepClockSteps(d)
	inBand := 0
	for _, clock := range steps {
		points, err := c.Sweep("cortex-a72", 2, bench.Samples, []float64{clock})
		if err != nil {
			t.Fatalf("SWEEP %g: %v", clock, err)
		}
		want, err := bench.SweepBatch(d, 2, []float64{clock})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(points, want) {
			t.Fatalf("SWEEP %g: wire %+v != direct %+v", clock, points[0], want[0])
		}
		if want[0] != nil {
			inBand++
		}
	}
	if inBand == 0 {
		t.Fatal("every sweep point out of band; the grid comparison is vacuous")
	}
	if inBand == len(steps) {
		t.Log("note: no out-of-band clock on this grid")
	}
}
