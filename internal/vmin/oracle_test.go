package vmin

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/slab"
	"repro/internal/workload"
)

// The bounded descent decides most supply steps from the nominal rung's
// prediction. The oracle here is the descent as the paper performs it —
// every step's rung solved, every outcome classified from the solved
// minimum — and the bounded descent must reproduce it bit for bit.

// exhaustiveClassify is the failure model applied to a solved rung, one
// draw sequence from the trial's content-keyed stream.
func exhaustiveClassify(t *Tester, load platform.Load, clockHz, supply float64, trial int, minV float64) FailureKind {
	rng := t.trialRNG(load, clockHz, supply, trial)
	vcrit := t.vcritAt(clockHz) + rng.NormFloat64()*t.ThresholdJitterV
	sdcBand := t.Domain.Spec.Failure.SDCBand
	switch {
	case minV < vcrit:
		return SystemCrash
	case minV < vcrit+sdcBand:
		if rng.Intn(2) == 0 {
			return SDC
		}
		return AppCrash
	default:
		return Pass
	}
}

// exhaustiveEval solves every rung from nominal down to the first
// deviation.
func exhaustiveEval(t *Tester, load platform.Load, clockHz float64, trial int, ld *platform.Ladder) (*Result, error) {
	spec := t.Domain.Spec
	step := spec.VminStepVolts()
	nominal := spec.PDN.VNominal

	// Droop at nominal conditions first.
	_, nomDroop, err := ld.MinVDroop(nominal)
	if err != nil {
		return nil, err
	}
	res := &Result{DroopNominalV: nomDroop}

	maxSteps := int(nominal/step) + 1
	for i := 0; i <= maxSteps; i++ {
		supply := nominal - float64(i)*step
		if supply <= 0 {
			return nil, fmt.Errorf("vmin: %s: no failure found down to 0V (model miscalibrated?)", spec.Name)
		}
		minV, _, err := ld.MinVDroop(supply)
		if err != nil {
			return nil, err
		}
		kind := exhaustiveClassify(t, load, clockHz, supply, trial, minV)
		if kind != Pass {
			res.VminV = supply
			res.Outcome = kind
			res.MarginV = nominal - supply
			return res, nil
		}
	}
	return nil, fmt.Errorf("vmin: %s: search exhausted", spec.Name)
}

// exhaustiveColumn runs the oracle descent on a fresh, unprimed ladder.
func exhaustiveColumn(t *Tester, load platform.Load, clockHz float64, trial int) (*Result, error) {
	ld, err := t.Domain.LadderAt(load, t.Dt, t.N, clockHz, nil, &slab.Arena{})
	if err != nil {
		return nil, err
	}
	return exhaustiveEval(t, load, clockHz, trial, ld)
}

// exhaustiveRepeat is Repeat over the oracle descent.
func exhaustiveRepeat(t *Tester, load platform.Load, n int) (*Result, []float64, error) {
	clock := t.Domain.ClockHz()
	ld, err := t.Domain.LadderAt(load, t.Dt, t.N, clock, nil, &slab.Arena{})
	if err != nil {
		return nil, nil, err
	}
	var worst *Result
	var all []float64
	for i := 0; i < n; i++ {
		r, err := exhaustiveEval(t, load, clock, i, ld)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, r.VminV)
		if worst == nil || r.VminV > worst.VminV {
			worst = r
		}
	}
	return worst, all, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(a, b *Result) bool {
	return sameBits(a.VminV, b.VminV) && a.Outcome == b.Outcome &&
		sameBits(a.MarginV, b.MarginV) && sameBits(a.DroopNominalV, b.DroopNominalV)
}

// descentCase is one (platform, domain, powered-core count) the oracle
// tests cover, with its probe load and the DVFS columns: the top step, the
// middle one and the lower quartile. Half the powered cores (rounded up)
// run the load, so every count above one carries an idle lift.
type descentCase struct {
	name     string
	platform string
	domain   string
	powered  int
	load     platform.Load
	clocks   []float64
}

// fresh builds the case's domain on a platform of its own, with the case's
// cores powered, so cases can run in parallel.
func (c descentCase) fresh(t *testing.T) *platform.Domain {
	t.Helper()
	p, err := platform.Build(c.platform)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(c.domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPoweredCores(c.powered); err != nil {
		t.Fatal(err)
	}
	return d
}

// descentCases enumerates every domain of every registry platform (the
// converted builtins and the data-only specs alike) at every powered-core
// count.
func descentCases(t *testing.T) []descentCase {
	t.Helper()
	var out []descentCase
	for _, pname := range platform.BuiltinNames() {
		p, err := platform.Build(pname)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range p.Domains() {
			seq, err := workload.Probe().Build(d.Spec.Pool())
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, d.Spec.Name, err)
			}
			steps := d.ClockSteps()
			clocks := []float64{steps[len(steps)-1], steps[len(steps)/2], steps[len(steps)/4]}
			for powered := 1; powered <= d.Spec.TotalCores; powered++ {
				out = append(out, descentCase{
					name:     fmt.Sprintf("%s/%s/powered=%d", pname, d.Spec.Name, powered),
					platform: pname,
					domain:   d.Spec.Name,
					powered:  powered,
					load:     platform.Load{Seq: seq, ActiveCores: (powered + 1) / 2},
					clocks:   clocks,
				})
			}
		}
	}
	return out
}

// TestBoundedDescentMatchesExhaustive pins Search, Repeat and Shmoo —
// every entry point of the bounded descent — against the exhaustive
// oracle, whole results compared in their float bits, over every registry
// domain, every powered-core count, three DVFS columns and tester seeds
// 1–4.
func TestBoundedDescentMatchesExhaustive(t *testing.T) {
	for _, c := range descentCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.fresh(t)
			for seed := int64(1); seed <= 4; seed++ {
				tst := NewTester(d, seed)

				want, err := exhaustiveColumn(tst, c.load, d.ClockHz(), 0)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tst.Search(c.load)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Fatalf("seed %d: Search %+v, exhaustive %+v", seed, got, want)
				}

				wantWorst, wantAll, err := exhaustiveRepeat(tst, c.load, 5)
				if err != nil {
					t.Fatal(err)
				}
				worst, all, err := tst.Repeat(c.load, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(worst, wantWorst) || len(all) != len(wantAll) {
					t.Fatalf("seed %d: Repeat worst %+v, exhaustive %+v", seed, worst, wantWorst)
				}
				for i := range all {
					if !sameBits(all[i], wantAll[i]) {
						t.Fatalf("seed %d: Repeat run %d: %v, exhaustive %v", seed, i, all[i], wantAll[i])
					}
				}

				points, err := tst.Shmoo(c.load, c.clocks)
				if err != nil {
					t.Fatal(err)
				}
				for i, clock := range c.clocks {
					r, err := exhaustiveColumn(tst, c.load, clock, 0)
					if err != nil {
						t.Fatal(err)
					}
					p := points[i]
					if !sameBits(p.ClockHz, clock) || !sameBits(p.VminV, r.VminV) ||
						!sameBits(p.MarginV, r.MarginV) || p.Outcome != r.Outcome {
						t.Fatalf("seed %d: Shmoo at %v Hz: %+v, exhaustive %+v", seed, clock, p, r)
					}
				}
			}
		})
	}
}

// TestRungPredictionWithinBound is the property behind the bounded
// descent: at every supply step from nominal down to two steps past V_MIN,
// the solved rung's minimum die voltage lies within delta/PredictSafety of
// PredictMinV's prediction, on every registry domain, powered-core count
// and DVFS column the descent test covers.
func TestRungPredictionWithinBound(t *testing.T) {
	var maxGap, maxRatio, maxDelta float64
	rungs := 0
	for _, c := range descentCases(t) {
		d := c.fresh(t)
		tst := NewTester(d, 1)
		spec := d.Spec
		step := spec.VminStepVolts()
		nominal := spec.PDN.VNominal
		for _, clock := range c.clocks {
			res, err := exhaustiveColumn(tst, c.load, clock, 0)
			if err != nil {
				t.Fatal(err)
			}
			ld, err := d.LadderAt(c.load, tst.Dt, tst.N, clock, nil, &slab.Arena{})
			if err != nil {
				t.Fatal(err)
			}
			for supply, i := nominal, 0; supply >= res.VminV-2*step && supply > 0; i, supply = i+1, nominal-float64(i+1)*step {
				pred, delta, err := ld.PredictMinV(supply)
				if err != nil {
					t.Fatal(err)
				}
				solved, _, err := ld.MinVDroop(supply)
				if err != nil {
					t.Fatal(err)
				}
				bound := delta / platform.PredictSafety
				gap := math.Abs(solved - pred)
				if !(gap <= bound) {
					t.Fatalf("%s at %v Hz, %vV: solved %v, predicted %v, gap %g > bound %g",
						c.name, clock, supply, solved, pred, gap, bound)
				}
				maxGap = math.Max(maxGap, gap)
				maxRatio = math.Max(maxRatio, gap/bound)
				maxDelta = math.Max(maxDelta, delta)
				rungs++
			}
		}
	}
	t.Logf("%d rungs: largest |solved − predicted| %g V, at most %.3g of delta/%d; largest delta %g V",
		rungs, maxGap, maxRatio, platform.PredictSafety, maxDelta)
}
