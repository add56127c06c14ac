package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dsp"
	"repro/internal/instrument"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/slab"
)

// runFig1b reproduces Figure 1(b): the PDN driving-point impedance seen by
// the die shows three resonance peaks, with the first-order (die cap vs
// package inductance) peak strongest and at the highest frequency.
func runFig1b(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	m, err := d.Model()
	if err != nil {
		return nil, err
	}
	prof, err := m.ImpedanceProfile(10e3, 1e9, 240)
	if err != nil {
		return nil, err
	}
	peaks, err := m.ResonancePeaks(10e3, 1e9, 600)
	if err != nil {
		return nil, err
	}
	if len(peaks) < 3 {
		return nil, fmt.Errorf("fig1b: found only %d resonance peaks", len(peaks))
	}
	xs := make([]float64, 0, len(prof))
	ys := make([]float64, 0, len(prof))
	for i, p := range prof {
		if i%8 != 0 { // thin the plot for terminal output
			continue
		}
		xs = append(xs, p.Freq/1e6)
		ys = append(ys, p.Z*1e3)
	}
	var b strings.Builder
	b.WriteString(report.Series("Cortex-A72 PDN impedance |Z(f)|", "freq (MHz)", "Z (mOhm)", xs, ys))
	tb := report.NewTable("Resonance peaks", "order", "frequency", "impedance (mOhm)")
	for i, p := range peaks {
		if i > 2 {
			break
		}
		tb.AddRow(fmt.Sprintf("%d", i+1), report.MHz(p.Freq), fmt.Sprintf("%.1f", p.Amp*1e3))
	}
	b.WriteString(tb.String())
	return &Result{
		ID: "fig1b", Title: "PDN impedance profile", Text: b.String(),
		Values: map[string]float64{
			"first_order_hz":   peaks[0].Freq,
			"first_order_mohm": peaks[0].Amp * 1e3,
			"num_peaks":        float64(len(peaks)),
		},
	}, nil
}

// runFig1c reproduces Figure 1(c): the time-domain response to a
// step-current excitation rings at the tank frequencies.
func runFig1c(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	m, err := d.Model()
	if err != nil {
		return nil, err
	}
	const (
		dt    = 0.25e-9
		steps = 8000
		amp   = 1.0
	)
	resp, err := m.StepResponse(amp, dt, steps)
	if err != nil {
		return nil, err
	}
	droop := resp.MaxDroop(d.Spec.PDN.VNominal)
	// Dominant ring frequency from the spectrum of the AC part.
	ac := make([]float64, len(resp.VDie))
	for i, v := range resp.VDie {
		ac[i] = v - resp.VDie[len(resp.VDie)-1]
	}
	freqs, amps := dsp.AmplitudeSpectrum(ac, 1/dt)
	ringHz, _, ok := dsp.MaxInBand(freqs, amps, 20e6, 300e6)
	if !ok {
		return nil, fmt.Errorf("fig1c: no ring component found")
	}
	xs := make([]float64, 0, 200)
	ys := make([]float64, 0, 200)
	for i := 0; i <= 2000; i += 25 {
		xs = append(xs, float64(i)*dt*1e9)
		ys = append(ys, resp.VDie[i]*1e3)
	}
	text := report.Series("Step response of V_DIE (1 A step)", "time (ns)", "V_DIE (mV)", xs, ys)
	return &Result{
		ID: "fig1c", Title: "PDN step response", Text: text,
		Values: map[string]float64{
			"max_droop_mv": droop * 1e3,
			"ring_hz":      ringHz,
		},
	}, nil
}

// runFig2 reproduces Figure 2: a load current pulsing at the first-order
// resonance drives V_DIE and I_DIE into large sustained oscillations,
// maximizing radiated EM power; off-resonance pulsing does not.
func runFig2(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	m, err := d.Model()
	if err != nil {
		return nil, err
	}
	fRes, _, err := m.ResonancePeak(30e6, 150e6)
	if err != nil {
		return nil, err
	}
	scl := instrument.NewSCL(0.5)
	at, err := scl.Excite(m, fRes)
	if err != nil {
		return nil, err
	}
	off, err := scl.Excite(m, fRes/3)
	if err != nil {
		return nil, err
	}
	iPtpAt := ptp(at.IDie)
	iPtpOff := ptp(off.IDie)
	tb := report.NewTable("Square-wave excitation at vs off resonance",
		"stimulus", "V_DIE p2p", "I_DIE p2p (A)")
	tb.AddRow(report.MHz(fRes)+" (resonant)", report.MV(at.PeakToPeak()), fmt.Sprintf("%.3f", iPtpAt))
	tb.AddRow(report.MHz(fRes/3)+" (off)", report.MV(off.PeakToPeak()), fmt.Sprintf("%.3f", iPtpOff))
	return &Result{
		ID: "fig2", Title: "Resonant excitation waveforms", Text: tb.String(),
		Values: map[string]float64{
			"resonant_vptp_mv": at.PeakToPeak() * 1e3,
			"off_vptp_mv":      off.PeakToPeak() * 1e3,
			"resonant_iptp_a":  iPtpAt,
			"gain":             at.PeakToPeak() / off.PeakToPeak(),
		},
	}, nil
}

// runFig4 reproduces Figure 4: OC-DSO voltage waveforms for idle, a SPEC
// benchmark and the dI/dt virus; the virus causes by far the largest noise.
func runFig4(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	dso := instrument.NewOCDSO(c.Opts.Seed + 40)
	_, virus, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	loads := map[string]platform.Load{"virus": virus}
	for _, name := range []string{"idle", "lbm"} {
		l, err := buildLoad(d, name, 2)
		if err != nil {
			return nil, err
		}
		loads[name] = l
	}
	tb := report.NewTable("OC-DSO capture per workload", "workload", "p2p", "max droop")
	vals := make(map[string]float64)
	var ar slab.Arena
	for _, name := range []string{"idle", "lbm", "virus"} {
		ar.Reset()
		resp, _, err := d.SteadyVDie(loads[name], c.JunoBench.Dt, c.JunoBench.N, &ar)
		if err != nil {
			return nil, err
		}
		trace, err := dso.Capture(resp)
		if err != nil {
			return nil, err
		}
		tb.AddRow(name, report.MV(trace.PeakToPeak()), report.MV(trace.MaxDroop(d.SupplyVolts())))
		vals[name+"_ptp_mv"] = trace.PeakToPeak() * 1e3
		vals[name+"_droop_mv"] = trace.MaxDroop(d.SupplyVolts()) * 1e3
	}
	return &Result{ID: "fig4", Title: "OC-DSO workload waveforms", Text: tb.String(), Values: vals}, nil
}

// runFig6 reproduces Figure 6: the loop antenna's |S11| is flat (fully
// mismatched but non-resonant) through the band of interest, with a deep
// self-resonance dip at ~2.95 GHz.
func runFig6(c *Context) (*Result, error) {
	ant := c.Juno.Antenna
	var xs, ys []float64
	minS, minF := math.Inf(1), 0.0
	for f := 50e6; f <= 5e9; f *= 1.08 {
		s := ant.S11(f)
		xs = append(xs, f/1e9)
		ys = append(ys, s)
		if s < minS {
			minS, minF = s, f
		}
	}
	text := report.Series("Antenna |S11|", "freq (GHz)", "|S11|", xs, ys)
	inBand := ant.S11(100e6)
	return &Result{
		ID: "fig6", Title: "Antenna |S11| response", Text: text,
		Values: map[string]float64{
			"self_resonance_hz": minF,
			"s11_at_dip":        minS,
			"s11_in_band":       inBand,
		},
	}, nil
}

func ptp(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	min, max := x[0], x[0]
	for _, v := range x {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}
