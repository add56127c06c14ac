package emnoise

// Cross-cutting physical-invariant property tests: these exercise the whole
// stack through the public API with randomized inputs, checking laws that
// must hold regardless of calibration.

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/pdn"
)

// randomPDN perturbs the Juno A72 PDN by up to ±30% per element.
func randomPDN(rng *rand.Rand) PDNParams {
	jitter := func(v float64) float64 { return v * (0.7 + 0.6*rng.Float64()) }
	plat, err := JunoR2()
	if err != nil {
		panic(err)
	}
	p := plat.Domains()[0].Spec.PDN
	p.CDieCore = jitter(p.CDieCore)
	p.CDieUncore = jitter(p.CDieUncore)
	p.RDie = jitter(p.RDie)
	p.LPkg = jitter(p.LPkg)
	p.RPkgTrace = jitter(p.RPkgTrace)
	p.CPkg = jitter(p.CPkg)
	p.ESRPkg = jitter(p.ESRPkg)
	p.ESLPkg = jitter(p.ESLPkg)
	p.LPcb = jitter(p.LPcb)
	p.RPcbTrace = jitter(p.RPcbTrace)
	p.CPcb = jitter(p.CPcb)
	p.ESRPcb = jitter(p.ESRPcb)
	p.ESLPcb = jitter(p.ESLPcb)
	p.LVrm = jitter(p.LVrm)
	p.RVrm = jitter(p.RVrm)
	return p
}

// Passivity: a network of positive Rs, Ls and Cs cannot generate energy, so
// the driving-point impedance must have a non-negative real part at every
// frequency, for any parameter set.
func TestPDNPassivityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := randomPDN(rng)
		cores := 1 + rng.Intn(4)
		m, err := pdn.NewModel(params, cores)
		if err != nil {
			return false
		}
		for i := 0; i < 12; i++ {
			f := 1e4 * math10(rng.Float64()*5) // 10 kHz .. 1 GHz, log-uniform
			z, err := m.Impedance(f)
			if err != nil {
				return false
			}
			if real(z) < -1e-9 {
				t.Logf("negative resistance %v at %v Hz (seed %d)", real(z), f, seed)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// steadyAndCurrent returns the steady-state die voltage and the
// inductor-current amplitude spectrum under load, on fresh rows.
func steadyAndCurrent(ts *pdn.TransferSet, load []float64, vnom float64) (vdie, iAmp []float64, err error) {
	n := ts.N
	half := n/2 + 1
	vdie = make([]float64, n)
	if err := ts.SteadyStateInto(vdie, load, vnom, make([]complex128, half), make([]complex128, half),
		make([]complex128, dsp.RFFTScratchLen(n))); err != nil {
		return nil, nil, err
	}
	iAmp = make([]float64, half)
	if _, err := ts.SpectraInto(make([]float64, half), iAmp, load, make([]complex128, half),
		make([]complex128, dsp.RFFTScratchLen(n))); err != nil {
		return nil, nil, err
	}
	return vdie, iAmp, nil
}

// Reciprocity of scale: doubling the load current must exactly double the
// AC response (the network is linear).
func TestPDNLinearityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := randomPDN(rng)
		m, err := pdn.NewModel(params, 2)
		if err != nil {
			return false
		}
		const n = 256
		dt := 1e-9
		ts, err := m.Transfers(n, dt)
		if err != nil {
			return false
		}
		load := make([]float64, n)
		for i := range load {
			load[i] = 0.5 + 0.5*rng.Float64()
		}
		double := make([]float64, n)
		for i := range load {
			double[i] = 2 * load[i]
		}
		v1, i1, err := steadyAndCurrent(ts, load, params.VNominal)
		if err != nil {
			return false
		}
		v2, i2, err := steadyAndCurrent(ts, double, params.VNominal)
		if err != nil {
			return false
		}
		vnom := params.VNominal
		for i := range v1 {
			d1 := vnom - v1[i]
			d2 := vnom - v2[i]
			if absDiff(d2, 2*d1) > 1e-9*(1+absDiff(d2, 0)) {
				return false
			}
		}
		for k := range i1 {
			if absDiff(i2[k], 2*i1[k]) > 1e-9*(1+absDiff(i2[k], 0)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(67))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Monotone capacitance: adding powered cores (capacitance) can only lower
// the first-order resonance, for any parameter set.
func TestResonanceMonotoneInCoresProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := randomPDN(rng)
		prev := 0.0
		for cores := 1; cores <= 4; cores++ {
			m, err := pdn.NewModel(params, cores)
			if err != nil {
				return false
			}
			f := m.FirstOrderResonance()
			if cores > 1 && f >= prev {
				return false
			}
			prev = f
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Impedance magnitude symmetry: |Z| computed via the AC path must equal the
// magnitude of the transfer-set bin at the same frequency.
func TestTransferConsistencyProperty(t *testing.T) {
	plat, err := JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	params := plat.Domains()[0].Spec.PDN
	m, err := pdn.NewModel(params, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	dt := 1e-9
	ts, err := m.Transfers(n, dt)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n/2; k += 7 {
		f := float64(k) / (float64(n) * dt)
		z, err := m.Impedance(f)
		if err != nil {
			t.Fatal(err)
		}
		if absDiff(cmplx.Abs(z), cmplx.Abs(ts.HV[k])) > 1e-9*(1+cmplx.Abs(z)) {
			t.Fatalf("bin %d: |Z| %v vs |HV| %v", k, cmplx.Abs(z), cmplx.Abs(ts.HV[k]))
		}
	}
}

func math10(x float64) float64 {
	out := 1.0
	for x >= 1 {
		out *= 10
		x--
	}
	// Fractional remainder via simple exponentiation.
	frac := 1.0
	if x > 0 {
		frac = 1 + x*9 // coarse log-uniform spread is fine for sampling
	}
	return out * frac
}

func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}
