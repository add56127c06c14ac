// Package predict implements one of the paper's proposed future directions
// (Section 10c): predicting a workload's voltage droop — and hence its
// V_MIN margin — from EM emanations alone, during conventional execution.
//
// The physics gives the feature set: received EM power at a frequency is
// quadratic in the oscillating feed current, and droop is linear in that
// current, so droop should be (approximately) linear in the *square roots*
// of in-band EM power features. A model is trained once on an instrumented
// reference platform (where a scope provides ground-truth droop) and then
// applied to any workload using only the antenna — including on platforms
// with no voltage visibility at all.
package predict

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/linalg"
	"repro/internal/platform"
	"repro/internal/slab"
)

// Features are the EM observables extracted from one workload run.
type Features struct {
	// PeakW is the strongest in-band received power (watts).
	PeakW float64
	// TotalW is the total in-band received power (watts).
	TotalW float64
	// PeakHz is the frequency of the strongest in-band component.
	PeakHz float64
}

// vector returns the regression design row for the features:
// [1, sqrt(peak), sqrt(total)] — square roots because droop is linear in
// current while received power is quadratic.
func (f Features) vector() []float64 {
	return []float64{1, math.Sqrt(f.PeakW), math.Sqrt(f.TotalW)}
}

const nFeatures = 3

// Extract measures a workload's EM features through the bench antenna.
func Extract(b *core.Bench, d *platform.Domain, l platform.Load) (Features, error) {
	if err := b.Validate(); err != nil {
		return Features{}, err
	}
	freqs, iAmp, _, err := d.SpectraArena(l, b.Dt, b.N, &slab.Arena{})
	if err != nil {
		return Features{}, err
	}
	_, watts, err := em.CombinedSpectrum(b.Platform.Antenna, []em.Emitter{
		{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
	})
	if err != nil {
		return Features{}, err
	}
	var out Features
	for i, f := range freqs {
		if f < b.Band.Lo || f > b.Band.Hi {
			continue
		}
		out.TotalW += watts[i]
		if watts[i] > out.PeakW {
			out.PeakW = watts[i]
			out.PeakHz = f
		}
	}
	// A workload with flat current (idle) legitimately has no in-band
	// emission; zero features predict the model's intercept.
	return out, nil
}

// Sample pairs EM features with ground-truth droop for training.
type Sample struct {
	Name     string
	Features Features
	DroopV   float64
}

// Collect runs a workload on an instrumented reference domain and records
// both the EM features and the true droop (from the electrical response —
// on real hardware this is the OC-DSO reading).
func Collect(b *core.Bench, d *platform.Domain, name string, l platform.Load) (Sample, error) {
	feats, err := Extract(b, d, l)
	if err != nil {
		return Sample{}, err
	}
	resp, _, err := d.SteadyVDie(l, b.Dt, b.N, &slab.Arena{})
	if err != nil {
		return Sample{}, err
	}
	return Sample{
		Name:     name,
		Features: feats,
		DroopV:   resp.MaxDroop(d.SupplyVolts()),
	}, nil
}

// Model is a fitted droop predictor.
type Model struct {
	// Coef are the regression coefficients for Features.vector().
	Coef [nFeatures]float64
	// TrainRMSE is the residual error on the training set (volts).
	TrainRMSE float64
}

// Train fits the droop model by ordinary least squares (normal equations).
// At least nFeatures+1 samples with some variety are required.
func Train(samples []Sample) (*Model, error) {
	n := len(samples)
	if n < nFeatures+1 {
		return nil, fmt.Errorf("predict: need at least %d samples, got %d", nFeatures+1, n)
	}
	// Normal equations: (X^T X) beta = X^T y.
	xtx := linalg.NewMatrix(nFeatures, nFeatures)
	xty := make([]float64, nFeatures)
	for _, s := range samples {
		row := s.Features.vector()
		for i := 0; i < nFeatures; i++ {
			for j := 0; j < nFeatures; j++ {
				xtx.Add(i, j, row[i]*row[j])
			}
			xty[i] += row[i] * s.DroopV
		}
	}
	// Tiny ridge term guards against degenerate training sets.
	for i := 0; i < nFeatures; i++ {
		xtx.Add(i, i, 1e-12)
	}
	f, err := linalg.Factor(xtx)
	if err != nil {
		return nil, fmt.Errorf("predict: singular design matrix: %w", err)
	}
	beta, err := f.Solve(xty)
	if err != nil {
		return nil, err
	}
	m := &Model{}
	copy(m.Coef[:], beta)
	var acc float64
	for _, s := range samples {
		r := s.DroopV - m.PredictDroop(s.Features)
		acc += r * r
	}
	m.TrainRMSE = math.Sqrt(acc / float64(n))
	return m, nil
}

// PredictDroop estimates a workload's worst droop from its EM features.
func (m *Model) PredictDroop(f Features) float64 {
	row := f.vector()
	var y float64
	for i, c := range m.Coef {
		y += c * row[i]
	}
	if y < 0 {
		y = 0
	}
	return y
}

// PredictMargin estimates the workload's V_MIN margin below nominal on the
// given domain: the supply can drop until the (supply-scaled) droop meets
// the domain's critical voltage.
//
// vmin satisfies vmin = vcrit + droop·(vmin/vnominal), so
// vmin = vcrit / (1 - droop/vnominal).
func (m *Model) PredictMargin(d *platform.Domain, f Features) float64 {
	spec := d.Spec
	vcrit := spec.Failure.VCritAtMax - spec.Failure.SlackPerHz*(spec.MaxClockHz-d.ClockHz())
	vnom := spec.PDN.VNominal
	droop := m.PredictDroop(f)
	frac := droop / vnom
	if frac >= 1 {
		return 0
	}
	vmin := vcrit / (1 - frac)
	if vmin >= vnom {
		return 0
	}
	return vnom - vmin
}

// Evaluate reports the prediction error on held-out samples: RMSE and the
// worst absolute error, both in volts.
func (m *Model) Evaluate(samples []Sample) (rmse, worst float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var acc float64
	for _, s := range samples {
		e := math.Abs(s.DroopV - m.PredictDroop(s.Features))
		acc += e * e
		if e > worst {
			worst = e
		}
	}
	return math.Sqrt(acc / float64(len(samples))), worst
}
