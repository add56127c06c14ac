package circuit

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDCVoltageDivider(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 10)
	c.R("r1", "in", "mid", 1e3)
	c.R("r2", "mid", Ground, 1e3)
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	v, err := opVoltage(c, op, "mid")
	if err != nil {
		t.Fatalf("Voltage: %v", err)
	}
	if math.Abs(v-5) > 1e-9 {
		t.Fatalf("divider mid = %v, want 5", v)
	}
	// Source delivers 5mA; branch current flows a->b through the circuit.
	i, err := opCurrent(c, op, "vs")
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if math.Abs(math.Abs(i)-5e-3) > 1e-9 {
		t.Fatalf("source current = %v, want ±5mA", i)
	}
	// Ground voltage is zero by definition.
	if v, _ := opVoltage(c, op, Ground); v != 0 {
		t.Fatalf("ground voltage = %v", v)
	}
}

func TestDCInductorIsShort(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 2)
	c.R("r1", "in", "a", 100)
	c.L("l1", "a", "b", 1e-6)
	c.R("r2", "b", Ground, 100)
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	va, _ := opVoltage(c, op, "a")
	vb, _ := opVoltage(c, op, "b")
	if math.Abs(va-vb) > 1e-9 {
		t.Fatalf("inductor not a DC short: %v vs %v", va, vb)
	}
	il, err := opCurrent(c, op, "l1")
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	if math.Abs(il-0.01) > 1e-9 {
		t.Fatalf("inductor current = %v, want 10mA", il)
	}
}

func TestDCCapacitorIsOpen(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 3)
	c.R("r1", "in", "a", 1e3)
	c.C("c1", "a", Ground, 1e-9)
	// With the cap open no current flows, so node a sits at the supply.
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	va, _ := opVoltage(c, op, "a")
	if math.Abs(va-3) > 1e-9 {
		t.Fatalf("cap node = %v, want 3", va)
	}
}

func TestRCStepResponse(t *testing.T) {
	// 1V step into R=1k, C=1uF from zero state: v(t) = 1 - exp(-t/tau).
	const tau = 1e-3
	c := New()
	c.V("vs", "in", Ground, 1)
	c.R("r", "in", "out", 1e3)
	c.C("c", "out", Ground, 1e-6)
	dt := tau / 1000
	tr, err := c.RunTransient(TransientOptions{Dt: dt, Steps: 3000})
	if err != nil {
		t.Fatalf("RunTransient: %v", err)
	}
	v, err := tr.Voltage("out")
	if err != nil {
		t.Fatalf("Voltage: %v", err)
	}
	for _, chk := range []struct{ mult, want float64 }{
		{1, 1 - math.Exp(-1)},
		{2, 1 - math.Exp(-2)},
		{3, 1 - math.Exp(-3)},
	} {
		idx := int(chk.mult * tau / dt)
		if math.Abs(v[idx]-chk.want) > 2e-3 {
			t.Errorf("v(%v*tau) = %v, want %v", chk.mult, v[idx], chk.want)
		}
	}
}

func TestTransientFromOPIsQuiescent(t *testing.T) {
	// Starting from the operating point with constant sources, nothing
	// should move.
	c := New()
	c.V("vs", "in", Ground, 1)
	c.R("r", "in", "out", 50)
	c.C("c", "out", Ground, 1e-9)
	c.L("l", "out", "o2", 1e-9)
	c.R("rl", "o2", Ground, 100)
	tr, err := c.RunTransient(TransientOptions{Dt: 1e-11, Steps: 200, FromOP: true})
	if err != nil {
		t.Fatalf("RunTransient: %v", err)
	}
	v, _ := tr.Voltage("out")
	for i, x := range v {
		if math.Abs(x-v[0]) > 1e-9 {
			t.Fatalf("quiescent drifted at step %d: %v vs %v", i, x, v[0])
		}
	}
}

func TestLCRingingFrequency(t *testing.T) {
	// Parallel LC tank excited by a current step rings at 1/(2*pi*sqrt(LC)).
	const (
		lVal = 100e-12 // 100 pH
		cVal = 40e-9   // 40 nF -> f0 ~ 79.6 MHz
	)
	f0 := 1 / (2 * math.Pi * math.Sqrt(lVal*cVal))
	c := New()
	c.V("vs", "sup", Ground, 1)
	c.L("l", "sup", "die", lVal)
	c.C("c", "die", Ground, cVal)
	c.R("rdamp", "die", Ground, 100) // light damping
	step := func(t float64) float64 {
		if t > 0 {
			return 1
		}
		return 0
	}
	c.I("iload", "die", Ground, step)
	dt := 1.0 / (f0 * 200)
	tr, err := c.RunTransient(TransientOptions{Dt: dt, Steps: 4000, FromOP: true})
	if err != nil {
		t.Fatalf("RunTransient: %v", err)
	}
	v, _ := tr.Voltage("die")
	// Count zero crossings of the AC part to estimate ring frequency.
	mean := 0.0
	for _, x := range v[len(v)/2:] {
		mean += x
	}
	mean /= float64(len(v) - len(v)/2)
	crossings := 0
	first, last := -1, -1
	for i := 1; i < len(v); i++ {
		if (v[i-1]-mean)*(v[i]-mean) < 0 {
			crossings++
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if crossings < 6 {
		t.Fatalf("too few ring crossings: %d", crossings)
	}
	period := 2 * float64(last-first) * dt / float64(crossings-1)
	fMeasured := 1 / period
	if math.Abs(fMeasured-f0) > 0.05*f0 {
		t.Fatalf("ring frequency = %v, want ~%v", fMeasured, f0)
	}
}

func TestACSeriesRLImpedance(t *testing.T) {
	// Z(f) = R + jwL seen into a series RL to ground.
	const r, l = 10.0, 1e-6
	c := New()
	c.I("probe", "n", Ground, DC(0))
	c.R("r", "n", "m", r)
	c.L("l", "m", Ground, l)
	f := 1e6
	z, err := impedance(c, f, "probe", "n")
	if err != nil {
		t.Fatalf("Impedance: %v", err)
	}
	want := complex(r, 2*math.Pi*f*l)
	if cmplx.Abs(z-want) > 1e-6*cmplx.Abs(want) {
		t.Fatalf("Z = %v, want %v", z, want)
	}
}

func TestACParallelRLCResonance(t *testing.T) {
	// At resonance a parallel RLC has purely real impedance equal to R.
	const (
		r = 1e3
		l = 1e-6
		ć = 1e-9
	)
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*ć))
	c := New()
	c.I("probe", "n", Ground, DC(0))
	c.R("r", "n", Ground, r)
	c.L("l", "n", Ground, l)
	c.C("c", "n", Ground, ć)
	z, err := impedance(c, f0, "probe", "n")
	if err != nil {
		t.Fatalf("Impedance: %v", err)
	}
	if math.Abs(real(z)-r) > 1e-3*r || math.Abs(imag(z)) > 1e-3*r {
		t.Fatalf("Z(f0) = %v, want %v+0i", z, r)
	}
	// Off resonance the magnitude must be lower.
	zLow, _ := impedance(c, f0/3, "probe", "n")
	zHigh, _ := impedance(c, f0*3, "probe", "n")
	if cmplx.Abs(zLow) >= cmplx.Abs(z) || cmplx.Abs(zHigh) >= cmplx.Abs(z) {
		t.Fatalf("resonance not a peak: |Z(f0/3)|=%v |Z(f0)|=%v |Z(3f0)|=%v",
			cmplx.Abs(zLow), cmplx.Abs(z), cmplx.Abs(zHigh))
	}
}

// Property: transient steady-state sinusoid amplitude matches |H(f)| from AC
// analysis, for a randomly damped parallel RLC driven by a sine current.
func TestACMatchesTransientProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lVal := 50e-12 * (1 + rng.Float64()) // 50-100 pH
		cVal := 20e-9 * (1 + rng.Float64())  // 20-40 nF
		rVal := 0.2 + 0.4*rng.Float64()      // strong damping for fast settling
		f := (40e6 + 80e6*rng.Float64())
		w := 2 * math.Pi * f

		build := func(wave Waveform) *Circuit {
			c := New()
			c.V("vs", "sup", Ground, 1)
			c.L("l", "sup", "die", lVal)
			c.C("c", "die", Ground, cVal)
			c.R("r", "die", Ground, rVal)
			c.I("iload", "die", Ground, wave)
			return c
		}

		ac := build(DC(0))
		h, err := acVoltage(ac, f, ACStimulus{"iload": 1}, "die")
		if err != nil {
			return false
		}
		wantAmp := cmplx.Abs(h) * 0.01 // 10 mA drive

		trc := build(func(t float64) float64 { return 0.01 * math.Sin(w*t) })
		dt := 1 / (f * 400)
		cycles := 150.0
		steps := int(cycles / (f * dt))
		tr, err := trc.RunTransient(TransientOptions{Dt: dt, Steps: steps, FromOP: true})
		if err != nil {
			return false
		}
		v, _ := tr.Voltage("die")
		tail := v[len(v)*3/4:]
		min, max := tail[0], tail[0]
		for _, x := range tail {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		gotAmp := (max - min) / 2
		return math.Abs(gotAmp-wantAmp) < 0.05*wantAmp+1e-9
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(c *Circuit)
	}{
		{"negative R", func(c *Circuit) { c.R("r", "a", "b", -1) }},
		{"zero C", func(c *Circuit) { c.C("c", "a", "b", 0) }},
		{"NaN L", func(c *Circuit) { c.L("l", "a", "b", math.NaN()) }},
		{"inf V", func(c *Circuit) { c.V("v", "a", "b", math.Inf(1)) }},
		{"nil wave", func(c *Circuit) { c.I("i", "a", "b", nil) }},
		{"empty name", func(c *Circuit) { c.R("", "a", "b", 1) }},
		{"duplicate", func(c *Circuit) { c.R("x", "a", "b", 1); c.C("x", "a", "b", 1e-9) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.f(New())
		})
	}
}

func TestErrorPaths(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 1)
	c.R("r", "in", Ground, 1)
	op, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	if _, err := opVoltage(c, op, "nope"); err == nil {
		t.Error("Voltage of unknown node succeeded")
	}
	if _, err := opCurrent(c, op, "nope"); err == nil {
		t.Error("Current of unknown branch succeeded")
	}
	if _, err := c.RunTransient(TransientOptions{Dt: 0, Steps: 10}); err == nil {
		t.Error("zero-dt transient succeeded")
	}
	if _, err := c.RunTransient(TransientOptions{Dt: 1e-9, Steps: 0}); err == nil {
		t.Error("zero-step transient succeeded")
	}
	if _, err := solveAC(c, -1, nil); err == nil {
		t.Error("negative-frequency AC succeeded")
	}
	if _, err := solveAC(c, 1e6, ACStimulus{"ghost": 1}); err == nil {
		t.Error("AC with unknown stimulus succeeded")
	}
	if _, err := New().OperatingPoint(); err == nil {
		t.Error("empty circuit OP succeeded")
	}
	if _, err := New().RunTransient(TransientOptions{Dt: 1e-9, Steps: 1}); err == nil {
		t.Error("empty circuit transient succeeded")
	}
	if _, err := solveAC(New(), 1, nil); err == nil {
		t.Error("empty circuit AC succeeded")
	}
}

func TestTransientCurrentsAndTimes(t *testing.T) {
	c := New()
	c.V("vs", "in", Ground, 1)
	c.R("r", "in", Ground, 100)
	tr, err := c.RunTransient(TransientOptions{Dt: 1e-9, Steps: 4, FromOP: true})
	if err != nil {
		t.Fatalf("RunTransient: %v", err)
	}
	i, err := tr.Current("vs")
	if err != nil {
		t.Fatalf("Current: %v", err)
	}
	// 10 mA magnitude through the source at every step.
	for _, x := range i {
		if math.Abs(math.Abs(x)-0.01) > 1e-9 {
			t.Fatalf("source current = %v", x)
		}
	}
	if _, err := tr.Current("r"); err == nil {
		t.Error("Current of a resistor should fail (no branch unknown)")
	}
	if v, err := tr.Voltage(Ground); err != nil || v[0] != 0 {
		t.Errorf("ground transient voltage: %v, %v", v, err)
	}
	if _, err := tr.Voltage("nope"); err == nil {
		t.Error("Voltage of unknown node succeeded")
	}
}
