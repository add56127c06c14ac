package experiments

import (
	"math"
	"strings"

	"repro/internal/backend"
	"repro/internal/instrument"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/slab"
)

// runFig7 reproduces Figure 7: the EM-driven GA on the Cortex-A72. The
// per-generation EM peak amplitude rises, the dominant frequency converges
// onto the first-order resonance, and — measured post hoc with the OC-DSO,
// exactly as the paper does — the best individual's voltage droop rises in
// lockstep with the EM amplitude.
func runFig7(c *Context) (*Result, error) {
	res, err := c.Virus(VirusA72EM)
	if err != nil {
		return nil, err
	}
	d, cores, err := c.VirusDomain(VirusA72EM)
	if err != nil {
		return nil, err
	}
	dso := instrument.NewOCDSO(c.Opts.Seed + 50)
	gens, bestDBm, domMHz := gaSeries(res)

	// Re-run each generation's best individual under the OC-DSO (the
	// paper obtains droop by re-running after the GA search finishes).
	droops := make([]float64, len(res.History))
	var ar slab.Arena
	for i, g := range res.History {
		ar.Reset()
		resp, _, err := d.SteadyVDie(platform.Load{Seq: g.Best.Seq, ActiveCores: cores},
			c.JunoBench.Dt, c.JunoBench.N, &ar)
		if err != nil {
			return nil, err
		}
		trace, err := dso.Capture(resp)
		if err != nil {
			return nil, err
		}
		droops[i] = trace.MaxDroop(d.Spec.PDN.VNominal) * 1e3
	}

	var b strings.Builder
	b.WriteString(report.Series("EM peak amplitude of best individual", "generation", "peak (dBm)", gens, bestDBm))
	b.WriteString(report.Series("Max droop of best individual (OC-DSO)", "generation", "droop (mV)", gens, droops))
	b.WriteString(report.Series("Dominant frequency of best individual", "generation", "freq (MHz)", gens, domMHz))

	first, last := bestDBm[0], bestDBm[len(bestDBm)-1]
	corr := pearson(bestDBm, droops)
	return &Result{
		ID: "fig7", Title: "EM-driven GA on Cortex-A72", Text: b.String(),
		Values: map[string]float64{
			"amplitude_gain_db":  last - first,
			"final_dominant_mhz": domMHz[len(domMHz)-1],
			"final_droop_mv":     droops[len(droops)-1],
			"first_droop_mv":     droops[0],
			"em_droop_corr":      corr,
		},
	}, nil
}

// runFig8 reproduces Figure 8: the SCL square-wave sweep on the A72 rail
// locates the resonance at 66-72 MHz with both cores powered and higher
// with one core.
func runFig8(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	scl := instrument.NewSCL(0.5)
	dso := instrument.NewOCDSO(c.Opts.Seed + 51)

	sweepFor := func(cores int) ([]instrument.SweepPoint, instrument.SweepPoint, error) {
		gated, err := d.Gated(cores)
		if err != nil {
			return nil, instrument.SweepPoint{}, err
		}
		m, err := gated.Model()
		if err != nil {
			return nil, instrument.SweepPoint{}, err
		}
		points, err := scl.Sweep(m, dso, 50e6, 110e6, 1e6)
		if err != nil {
			return nil, instrument.SweepPoint{}, err
		}
		peak, err := instrument.PeakOfSweep(points)
		return points, peak, err
	}
	both, peakBoth, err := sweepFor(2)
	if err != nil {
		return nil, err
	}
	_, peakOne, err := sweepFor(1)
	if err != nil {
		return nil, err
	}

	xs := make([]float64, len(both))
	ys := make([]float64, len(both))
	for i, p := range both {
		xs[i] = p.Freq / 1e6
		ys[i] = p.PtpV * 1e3
	}
	var b strings.Builder
	b.WriteString(report.Series("SCL sweep, both cores powered (C0C1)", "freq (MHz)", "p2p (mV)", xs, ys))
	tb := report.NewTable("SCL resonance", "cores", "resonance", "p2p")
	tb.AddRow("C0C1", report.MHz(peakBoth.Freq), report.MV(peakBoth.PtpV))
	tb.AddRow("C0", report.MHz(peakOne.Freq), report.MV(peakOne.PtpV))
	b.WriteString(tb.String())
	return &Result{
		ID: "fig8", Title: "SCL resonance sweep on Cortex-A72", Text: b.String(),
		Values: map[string]float64{
			"resonance_c0c1_hz": peakBoth.Freq,
			"resonance_c0_hz":   peakOne.Freq,
		},
	}, nil
}

// runFig9 reproduces Figure 9: during the EM virus, the spectrum analyzer
// (via the antenna) and the FFT of the OC-DSO voltage samples agree on the
// dominant spike and on secondary spikes such as the loop fundamental.
func runFig9(c *Context) (*Result, error) {
	d, virus, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	// Spectrum analyzer view through the antenna (via the backend's EM
	// measurer, so a remote rig feeds the same comparison).
	analyzer, err := c.JunoBE.Measurer(backend.MeasurerSpec{
		Domain: platform.DomainA72, Metric: backend.MetricEM, ActiveCores: virus.ActiveCores,
	})
	if err != nil {
		return nil, err
	}
	_, analyzerHz, err := analyzer.Measure(virus.Seq)
	if err != nil {
		return nil, err
	}
	// OC-DSO FFT view.
	resp, ur, err := d.SteadyVDie(virus, c.JunoBench.Dt, c.JunoBench.N, &slab.Arena{})
	if err != nil {
		return nil, err
	}
	dso := instrument.NewOCDSO(c.Opts.Seed + 52)
	trace, err := dso.Capture(resp)
	if err != nil {
		return nil, err
	}
	freqs, amps := trace.Spectrum()
	var dsoHz, dsoAmp float64
	for i, f := range freqs {
		if f < c.JunoBench.Band.Lo || f > c.JunoBench.Band.Hi {
			continue
		}
		if amps[i] > dsoAmp {
			dsoHz, dsoAmp = f, amps[i]
		}
	}
	loopHz := d.ClockHz() / ur.LoopCycles

	tb := report.NewTable("Frequency-domain agreement", "instrument", "dominant spike")
	tb.AddRow("spectrum analyzer (antenna)", report.MHz(analyzerHz))
	tb.AddRow("OC-DSO FFT", report.MHz(dsoHz))
	tb.AddRow("virus loop fundamental", report.MHz(loopHz))
	delta := absF(analyzerHz - dsoHz)
	return &Result{
		ID: "fig9", Title: "Spectrum analyzer vs OC-DSO FFT", Text: tb.String(),
		Values: map[string]float64{
			"analyzer_hz":  analyzerHz,
			"dso_fft_hz":   dsoHz,
			"agreement_hz": delta,
			"loop_hz":      loopHz,
		},
	}, nil
}

// fig10Order is the workload order of the Figure 10 bars.
var fig10Order = []string{
	"idle", "mcf", "gcc", "bzip2", "hmmer", "h264ref", "soplex", "milc",
	"namd", "povray", "lbm", "dsoVirus", "emVirus",
}

// runFig10 reproduces Figure 10: V_MIN and maximum droop on the dual-core
// Cortex-A72 for the SPEC proxies and both viruses. The viruses droop
// hardest and have the highest V_MIN.
func runFig10(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	loads := make(map[string]platform.Load)
	for _, name := range fig10Order[:len(fig10Order)-2] {
		l, err := buildLoad(d, name, 2)
		if err != nil {
			return nil, err
		}
		loads[name] = l
	}
	_, emV, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	_, dsoV, err := c.virusLoad(VirusA72DSO)
	if err != nil {
		return nil, err
	}
	loads["emVirus"] = emV
	loads["dsoVirus"] = dsoV

	rows, err := c.vminCampaign(c.JunoBE, platform.DomainA72, loads,
		map[string]bool{"emVirus": true, "dsoVirus": true}, fig10Order)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("V_MIN and max droop, Cortex-A72 dual-core",
		"workload", "Vmin", "droop@nominal", "first failure")
	vals := make(map[string]float64)
	var lbmVmin, lbmDroop float64
	for _, r := range rows {
		tb.AddRow(r.Name, report.Volts(r.VminV), report.MV(r.DroopV), r.Kind.String())
		vals[r.Name+"_vmin_v"] = r.VminV
		vals[r.Name+"_droop_mv"] = r.DroopV * 1e3
		if r.Name == "lbm" {
			lbmVmin, lbmDroop = r.VminV, r.DroopV
		}
	}
	vals["em_virus_vs_lbm_vmin_mv"] = (vals["emVirus_vmin_v"] - lbmVmin) * 1e3
	vals["em_virus_vs_lbm_droop_mv"] = vals["emVirus_droop_mv"] - lbmDroop*1e3
	vals["margin_mv"] = (d.Spec.PDN.VNominal - vals["emVirus_vmin_v"]) * 1e3
	return &Result{ID: "fig10", Title: "V_MIN and droop on Cortex-A72", Text: tb.String(), Values: vals}, nil
}

// runFig11 reproduces Figure 11: the fast EM sweep on the A72 peaks around
// 70 MHz with both cores powered and ~85 MHz with one.
func runFig11(c *Context) (*Result, error) {
	both, err := backend.ResonanceSweep(c.JunoBE, platform.DomainA72, 2, 0, 0)
	if err != nil {
		return nil, err
	}
	one, err := backend.ResonanceSweep(c.JunoBE, platform.DomainA72, 1, 1, 0)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(both.Points))
	ys := make([]float64, len(both.Points))
	for i, p := range both.Points {
		xs[i] = p.LoopHz / 1e6
		ys[i] = p.PeakDBm
	}
	var b strings.Builder
	b.WriteString(report.Series("Fast EM sweep, C0C1", "loop freq (MHz)", "peak (dBm)", xs, ys))
	tb := report.NewTable("Fast-sweep resonance estimates", "cores", "resonance")
	tb.AddRow("C0C1", report.MHz(both.ResonanceHz))
	tb.AddRow("C0", report.MHz(one.ResonanceHz))
	b.WriteString(tb.String())
	return &Result{
		ID: "fig11", Title: "Fast EM resonance sweep on Cortex-A72", Text: b.String(),
		Values: map[string]float64{
			"resonance_c0c1_hz": both.ResonanceHz,
			"resonance_c0_hz":   one.ResonanceHz,
		},
	}, nil
}

// pearson computes the correlation coefficient between two equal-length
// series.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 || len(a) != len(b) {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

func absF(x float64) float64 { return math.Abs(x) }
