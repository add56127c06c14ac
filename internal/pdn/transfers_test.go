package pdn_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/pdn"
)

// TestTransfersWorkerCountInvariant: the fanned-out transfer solve gives
// the same set in Float64bits at any worker count, on every built-in
// domain at every powered-core count, on a power-of-two grid and another
// length; and a grid whose bin frequencies overflow partway through fails
// with the serial loop's error, naming the lowest failing bin, at every
// count.
func TestTransfersWorkerCountInvariant(t *testing.T) {
	const dt = 0.25e-9
	workers := []int{1, 2, 3, 8}
	for key, m := range builtinModels(t) {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{8192, 1000} {
				want, err := m.TransfersOn(n, dt, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workers[1:] {
					got, err := m.TransfersOn(n, dt, w)
					if err != nil {
						t.Fatal(err)
					}
					requireSameSet(t, fmt.Sprintf("n=%d workers=%d", n, w), got, want)
				}

				// From bin bad on, k·fs overflows to +Inf and the solve
				// rejects the frequency; bad lies past the first chunk.
				half := n/2 + 1
				dtBad := float64(half/3) / math.MaxFloat64
				fs := 1 / dtBad // as Transfers computes it
				bad := 0
				for !math.IsInf(dsp.BinFreq(bad, n, fs), 0) {
					bad++
				}
				if bad < 128 || bad >= half {
					t.Fatalf("n=%d: first overflowing bin %d, want one in [128, %d)", n, bad, half)
				}
				wantErr := fmt.Sprintf("pdn: transfer at bin %d (+Inf Hz): ", bad)
				var serial string
				for _, w := range workers {
					_, err := m.TransfersOn(n, dtBad, w)
					if err == nil {
						t.Fatalf("n=%d workers=%d: overflowing grid accepted", n, w)
					}
					if w == 1 {
						serial = err.Error()
						if !strings.HasPrefix(serial, wantErr) {
							t.Fatalf("n=%d: serial error %q, want prefix %q", n, serial, wantErr)
						}
					} else if err.Error() != serial {
						t.Fatalf("n=%d workers=%d: error %q, serial %q", n, w, err, serial)
					}
				}
			}
		})
	}
}

// requireSameSet fails unless two transfer sets agree in Float64bits in
// every field: the transfers, the bin tables and the largest |HV|.
func requireSameSet(t *testing.T, what string, got, want *pdn.TransferSet) {
	t.Helper()
	if got.N != want.N || got.Dt != want.Dt || len(got.HV) != len(want.HV) || len(got.HI) != len(want.HI) {
		t.Fatalf("%s: shape N=%d Dt=%v %d/%d bins, want N=%d Dt=%v %d/%d", what,
			got.N, got.Dt, len(got.HV), len(got.HI), want.N, want.Dt, len(want.HV), len(want.HI))
	}
	for k := range want.HV {
		if !sameComplex(got.HV[k], want.HV[k]) || !sameComplex(got.HI[k], want.HI[k]) {
			t.Fatalf("%s: bin %d HV %v HI %v, want %v %v", what, k, got.HV[k], got.HI[k], want.HV[k], want.HI[k])
		}
	}
	gf, ga := got.Bins()
	wf, wa := want.Bins()
	for k := range wf {
		if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) || math.Float64bits(ga[k]) != math.Float64bits(wa[k]) {
			t.Fatalf("%s: bin %d freq %v |HI| %v, want %v %v", what, k, gf[k], ga[k], wf[k], wa[k])
		}
	}
	if math.Float64bits(got.MaxAbsHV()) != math.Float64bits(want.MaxAbsHV()) {
		t.Fatalf("%s: max |HV| %v, want %v", what, got.MaxAbsHV(), want.MaxAbsHV())
	}
}
