package experiments

import (
	"fmt"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/fingerprint"
	"repro/internal/instrument"
	"repro/internal/mitigate"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/slab"
)

// Extensions returns the experiments that go beyond the paper: its own
// Section 10 future-work items (GPU PDNs, EM-based margin prediction,
// tamper detection) plus studies the text motivates (adaptive-clocking
// latency budgets under power gating, SDR receivers as the front end).
func Extensions() []Experiment {
	return []Experiment{
		{ID: "ext-gpu", Title: "EM methodology on a GPU PDN (Section 10a)", Run: runExtGPU},
		{ID: "ext-predict", Title: "Voltage-margin prediction from EM features (Section 10c)", Run: runExtPredict},
		{ID: "ext-tamper", Title: "Tamper detection via resonance fingerprinting (Section 5.3)", Run: runExtTamper},
		{ID: "ext-mitigate", Title: "Adaptive-clocking latency budget vs power gating (Section 6)", Run: runExtMitigate},
		{ID: "ext-sdr", Title: "RTL-SDR receiver as the sensing front end (Section 4)", Run: runExtSDR},
	}
}

// runExtGPU applies the full methodology to the discrete-GPU platform:
// fast sweep, SM power-gating shifts, and an EM-driven virus.
func runExtGPU(c *Context) (*Result, error) {
	p, err := platform.GPUCard()
	if err != nil {
		return nil, err
	}
	b, err := core.NewBench(p, c.Opts.Seed+70)
	if err != nil {
		return nil, err
	}
	if c.Opts.Quick {
		b.Samples = 5
	}
	d, err := p.Domain(platform.DomainGPU)
	if err != nil {
		return nil, err
	}
	all, err := b.FastResonanceSweep(d, 8)
	if err != nil {
		return nil, err
	}
	two, err := d.Gated(2)
	if err != nil {
		return nil, err
	}
	gated, err := b.FastResonanceSweep(two, 1)
	if err != nil {
		return nil, err
	}
	cfg := c.gaConfig(d.Spec.Pool())
	virus, err := b.GenerateVirus(d, cfg, 8, nil)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("EM methodology on a GPU card (8 SMs)", "measurement", "result")
	tb.AddRow("fast sweep, 8 SMs", report.MHz(all.ResonanceHz))
	tb.AddRow("fast sweep, 2 SMs", report.MHz(gated.ResonanceHz))
	tb.AddRow("GA virus dominant", report.MHz(virus.Best.DominantHz))
	tb.AddRow("GA amplitude gain", fmt.Sprintf("%.1f dB",
		virus.History[len(virus.History)-1].BestFitness-virus.History[0].BestFitness))
	return &Result{
		ID: "ext-gpu", Title: "EM methodology on a GPU PDN", Text: tb.String(),
		Values: map[string]float64{
			"resonance_8sm_hz":  all.ResonanceHz,
			"resonance_2sm_hz":  gated.ResonanceHz,
			"virus_dominant_hz": virus.Best.DominantHz,
		},
	}, nil
}

// runExtPredict trains the EM→droop regression on ordinary benchmarks and
// evaluates it on held-out workloads including the A72 virus.
func runExtPredict(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	trainNames := []string{"idle", "mcf", "povray", "hmmer", "namd", "gcc", "h264ref", "prime95", "milc", "bzip2"}
	var train []predict.Sample
	for _, n := range trainNames {
		l, err := buildLoad(d, n, 2)
		if err != nil {
			return nil, err
		}
		s, err := predict.Collect(c.JunoBench, d, n, l)
		if err != nil {
			return nil, err
		}
		train = append(train, s)
	}
	model, err := predict.Train(train)
	if err != nil {
		return nil, err
	}
	var test []predict.Sample
	for _, n := range []string{"lbm", "soplex"} {
		l, err := buildLoad(d, n, 2)
		if err != nil {
			return nil, err
		}
		s, err := predict.Collect(c.JunoBench, d, n, l)
		if err != nil {
			return nil, err
		}
		test = append(test, s)
	}
	_, virusLoad, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	vs, err := predict.Collect(c.JunoBench, d, "emVirus", virusLoad)
	if err != nil {
		return nil, err
	}
	test = append(test, vs)
	rmse, worst := model.Evaluate(test)

	tb := report.NewTable("Droop prediction from EM features (trained on 10 benchmarks)",
		"workload", "actual droop", "predicted", "predicted margin")
	vals := map[string]float64{
		"train_rmse_mv":   model.TrainRMSE * 1e3,
		"heldout_rmse_mv": rmse * 1e3,
		"worst_err_mv":    worst * 1e3,
	}
	for _, s := range test {
		pred := model.PredictDroop(s.Features)
		tb.AddRow(s.Name, report.MV(s.DroopV), report.MV(pred),
			report.MV(model.PredictMargin(d, s.Features)))
		vals[s.Name+"_actual_mv"] = s.DroopV * 1e3
		vals[s.Name+"_pred_mv"] = pred * 1e3
	}
	return &Result{ID: "ext-predict", Title: "Voltage-margin prediction from EM features",
		Text: tb.String(), Values: vals}, nil
}

// runExtTamper provisions a fingerprint of the genuine Juno A72 rail and
// checks it against (a) the same board re-swept and (b) a board with an
// interposer implant adding package inductance.
func runExtTamper(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	ref, err := fingerprint.Capture(c.JunoBench, d, 2)
	if err != nil {
		return nil, err
	}
	recheck, err := fingerprint.Capture(c.JunoBench, d, 2)
	if err != nil {
		return nil, err
	}
	genuine, err := fingerprint.Compare(ref, recheck, fingerprint.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	// The implant: an interposer adds series inductance to the power path.
	a72 := d.Spec
	a53 := c.Juno.Domains()[1].Spec
	a72.PDN.LPkg *= 1.35
	evil, err := platform.NewPlatform("juno-implant", c.Juno.Antenna, a72, a53)
	if err != nil {
		return nil, err
	}
	evilBench, err := core.NewBench(evil, c.Opts.Seed+71)
	if err != nil {
		return nil, err
	}
	evilBench.Samples = c.JunoBench.Samples
	evilDom, err := evil.Domain(platform.DomainA72)
	if err != nil {
		return nil, err
	}
	cur, err := fingerprint.Capture(evilBench, evilDom, 2)
	if err != nil {
		return nil, err
	}
	tampered, err := fingerprint.Compare(ref, cur, fingerprint.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Resonance fingerprinting", "board", "shift", "curve RMS", "verdict")
	tb.AddRow("genuine (re-sweep)", report.MHz(genuine.ShiftHz),
		fmt.Sprintf("%.2f dB", genuine.CurveRMSDB), verdict(genuine.Tampered))
	tb.AddRow("interposer implant", report.MHz(tampered.ShiftHz),
		fmt.Sprintf("%.2f dB", tampered.CurveRMSDB), verdict(tampered.Tampered))
	return &Result{ID: "ext-tamper", Title: "Tamper detection via resonance fingerprinting",
		Text: tb.String(),
		Values: map[string]float64{
			"genuine_flagged":  boolVal(genuine.Tampered),
			"tampered_flagged": boolVal(tampered.Tampered),
			"tamper_shift_hz":  tampered.ShiftHz,
		},
	}, nil
}

// runExtMitigate measures the adaptive-clocking latency budget on the
// Cortex-A53 rail as cores are power-gated: the resonance climbs and the
// warning-to-emergency lead time shrinks.
func runExtMitigate(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA53)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Adaptive clocking vs power gating (Cortex-A53)",
		"powered cores", "resonance", "max workable latency")
	vals := make(map[string]float64)
	for _, cores := range []int{4, 2, 1} {
		gated, err := d.Gated(cores)
		if err != nil {
			return nil, err
		}
		m, err := gated.Model()
		if err != nil {
			return nil, err
		}
		fRes, _, err := m.ResonancePeak(40e6, 150e6)
		if err != nil {
			return nil, err
		}
		scl := instrument.NewSCL(1.2)
		resp, err := scl.Excite(m, fRes)
		if err != nil {
			return nil, err
		}
		ptp := resp.PeakToPeak()
		ac := mitigate.AdaptiveClock{WarnDroopV: ptp * 0.15, EmergencyDroopV: ptp * 0.45}
		var lats []float64
		for l := 0.0; l <= 8e-9; l += 0.05e-9 {
			lats = append(lats, l)
		}
		points, err := mitigate.LatencySweep(ac, resp, m.Params.VNominal, lats)
		if err != nil {
			return nil, err
		}
		budget := mitigate.CriticalLatency(points)
		tb.AddRow(fmt.Sprintf("%d", cores), report.MHz(fRes), fmt.Sprintf("%.2f ns", budget*1e9))
		vals[fmt.Sprintf("budget_%dcores_ns", cores)] = budget * 1e9
		vals[fmt.Sprintf("resonance_%dcores_hz", cores)] = fRes
	}
	return &Result{ID: "ext-mitigate", Title: "Adaptive-clocking latency budget vs power gating",
		Text: tb.String(), Values: vals}, nil
}

// runExtSDR verifies that a $20 SDR receiver identifies the same dominant
// emission as the bench spectrum analyzer while the A72 virus runs.
func runExtSDR(c *Context) (*Result, error) {
	d, virusLoad, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	// Incident spectrum at the antenna.
	freqs, iAmp, _, err := d.SpectraArena(virusLoad, c.JunoBench.Dt, c.JunoBench.N, &slab.Arena{})
	if err != nil {
		return nil, err
	}
	_, watts, err := em.CombinedSpectrum(c.Juno.Antenna, []em.Emitter{
		{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath},
	})
	if err != nil {
		return nil, err
	}
	analyzer, err := c.JunoBench.Analyzer.MeasurePeak(freqs, watts,
		c.JunoBench.Band.Lo, c.JunoBench.Band.Hi, c.JunoBench.Samples)
	if err != nil {
		return nil, err
	}
	sdr := instrument.NewRTLSDR(c.Opts.Seed + 72)
	scan, err := sdr.Scan(freqs, watts, c.JunoBench.Band.Lo, c.JunoBench.Band.Hi, 2048)
	if err != nil {
		return nil, err
	}
	sdrHz, sdrDBm, ok := scan.PeakInBand(c.JunoBench.Band.Lo, c.JunoBench.Band.Hi)
	if !ok {
		return nil, fmt.Errorf("ext-sdr: no SDR peak")
	}
	tb := report.NewTable("Analyzer vs RTL-SDR on the A72 virus", "receiver", "dominant", "level")
	tb.AddRow("bench analyzer", report.MHz(analyzer.PeakHz), report.DBm(analyzer.PeakDBm))
	tb.AddRow("rtl-sdr scan", report.MHz(sdrHz), report.DBm(sdrDBm))
	return &Result{ID: "ext-sdr", Title: "RTL-SDR receiver as the sensing front end",
		Text: tb.String(),
		Values: map[string]float64{
			"analyzer_hz":  analyzer.PeakHz,
			"sdr_hz":       sdrHz,
			"agreement_hz": absF(analyzer.PeakHz - sdrHz),
		},
	}, nil
}

func verdict(tampered bool) string {
	if tampered {
		return "TAMPERED"
	}
	return "ok"
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
