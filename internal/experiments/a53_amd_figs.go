package experiments

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/platform"
	"repro/internal/report"
)

// runFig12 reproduces Figure 12: the EM-driven GA on the quad-core
// Cortex-A53, a domain with no voltage visibility at all — the EM side
// channel is the only feedback, and it still converges onto the resonance.
func runFig12(c *Context) (*Result, error) {
	res, err := c.Virus(VirusA53EM)
	if err != nil {
		return nil, err
	}
	gens, bestDBm, domMHz := gaSeries(res)
	var b strings.Builder
	b.WriteString(report.Series("EM peak amplitude (Cortex-A53)", "generation", "peak (dBm)", gens, bestDBm))
	b.WriteString(report.Series("Dominant frequency (Cortex-A53)", "generation", "freq (MHz)", gens, domMHz))
	return &Result{
		ID: "fig12", Title: "EM-driven GA on Cortex-A53", Text: b.String(),
		Values: map[string]float64{
			"amplitude_gain_db":  bestDBm[len(bestDBm)-1] - bestDBm[0],
			"final_dominant_mhz": domMHz[len(domMHz)-1],
		},
	}, nil
}

// runFig13 reproduces Figure 13: fast EM sweeps on the Cortex-A53 with 4,
// 3, 2 and 1 cores powered (one active). Power-gating removes die
// capacitance, so the resonance climbs from ~76.5 MHz to ~97 MHz, and with
// the least capacitance the emission amplitude is largest.
func runFig13(c *Context) (*Result, error) {
	labels := map[int]string{4: "C0C1C2C3", 3: "C0C1C2", 2: "C0C1", 1: "C0"}
	tb := report.NewTable("Resonance vs powered cores (Cortex-A53)",
		"powered", "resonance", "peak EM")
	vals := make(map[string]float64)
	var amp1, amp4 float64
	for cores := 4; cores >= 1; cores-- {
		if err := c.JunoBE.SetPoweredCores(platform.DomainA53, cores); err != nil {
			return nil, err
		}
		res, err := backend.ResonanceSweep(c.JunoBE, platform.DomainA53, 1, 0)
		if err != nil {
			_ = c.JunoBE.Reset(platform.DomainA53)
			return nil, err
		}
		tb.AddRow(labels[cores], report.MHz(res.ResonanceHz), report.DBm(res.PeakDBm))
		vals[fmt.Sprintf("resonance_%dcores_hz", cores)] = res.ResonanceHz
		vals[fmt.Sprintf("peak_%dcores_dbm", cores)] = res.PeakDBm
		if cores == 1 {
			amp1 = res.PeakDBm
		}
		if cores == 4 {
			amp4 = res.PeakDBm
		}
	}
	if err := c.JunoBE.Reset(platform.DomainA53); err != nil {
		return nil, err
	}
	vals["amp_gain_1_vs_4_db"] = amp1 - amp4
	return &Result{ID: "fig13", Title: "Power-gating resonance shifts on Cortex-A53", Text: tb.String(), Values: vals}, nil
}

// fig14Order is the workload order of the Figure 14 bars.
var fig14Order = []string{
	"idle", "mcf", "gcc", "bzip2", "hmmer", "h264ref", "soplex", "milc",
	"namd", "povray", "lbm", "emVirus",
}

// runFig14 reproduces Figure 14: V_MIN on the quad-core Cortex-A53. The EM
// virus stands ~50 mV above every benchmark — obtained without any voltage
// measurement support on that domain.
func runFig14(c *Context) (*Result, error) {
	d, err := c.Juno.Domain(platform.DomainA53)
	if err != nil {
		return nil, err
	}
	loads := make(map[string]platform.Load)
	for _, name := range fig14Order[:len(fig14Order)-1] {
		l, err := buildLoad(d, name, 4)
		if err != nil {
			return nil, err
		}
		loads[name] = l
	}
	_, emV, err := c.virusLoad(VirusA53EM)
	if err != nil {
		return nil, err
	}
	loads["emVirus"] = emV
	rows, err := c.vminCampaign(c.JunoBE, platform.DomainA53, loads, map[string]bool{"emVirus": true}, fig14Order)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("V_MIN, Cortex-A53 quad-core", "workload", "Vmin", "first failure")
	vals := make(map[string]float64)
	var bestBench float64
	for _, r := range rows {
		tb.AddRow(r.Name, report.Volts(r.VminV), r.Kind.String())
		vals[r.Name+"_vmin_v"] = r.VminV
		if r.Name != "emVirus" && r.VminV > bestBench {
			bestBench = r.VminV
		}
	}
	vals["virus_above_benchmarks_mv"] = (vals["emVirus_vmin_v"] - bestBench) * 1e3
	vals["margin_mv"] = (d.Spec.PDN.VNominal - vals["emVirus_vmin_v"]) * 1e3
	return &Result{ID: "fig14", Title: "V_MIN on Cortex-A53", Text: tb.String(), Values: vals}, nil
}

// runFig15 reproduces Figure 15: both viruses run simultaneously on their
// voltage domains and the single antenna sees both spectral signatures at
// once — impossible with any physically attached single-rail probe.
func runFig15(c *Context) (*Result, error) {
	_, a72Load, err := c.virusLoad(VirusA72EM)
	if err != nil {
		return nil, err
	}
	_, a53Load, err := c.virusLoad(VirusA53EM)
	if err != nil {
		return nil, err
	}
	sweep, err := c.JunoBE.MonitorAll(map[string]platform.Load{
		platform.DomainA72: a72Load,
		platform.DomainA53: a53Load,
	})
	if err != nil {
		return nil, err
	}
	// The two domains resonate at distinct frequencies; find the strongest
	// bin near each domain's resonance.
	f72, p72, ok72 := sweep.PeakInBand(55e6, 72e6)
	f53, p53, ok53 := sweep.PeakInBand(72e6, 90e6)
	if !ok72 || !ok53 {
		return nil, fmt.Errorf("fig15: band search failed")
	}
	tb := report.NewTable("Simultaneous dual-domain signatures", "domain", "spike", "power")
	tb.AddRow("cortex-a72", report.MHz(f72), report.DBm(p72))
	tb.AddRow("cortex-a53", report.MHz(f53), report.DBm(p53))
	return &Result{
		ID: "fig15", Title: "Simultaneous multi-domain monitoring", Text: tb.String(),
		Values: map[string]float64{
			"a72_spike_hz":  f72,
			"a53_spike_hz":  f53,
			"a72_spike_dbm": p72,
			"a53_spike_dbm": p53,
		},
	}, nil
}

// runFig16 reproduces Figure 16: the fast EM sweep on the Athlon II finds
// the resonance near 78 MHz.
func runFig16(c *Context) (*Result, error) {
	res, err := backend.ResonanceSweep(c.AMDBE, platform.DomainAthlon, 4, 0)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(res.Points))
	ys := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i] = p.LoopHz / 1e6
		ys[i] = p.PeakDBm
	}
	text := report.Series("Fast EM sweep, Athlon II X4 645", "loop freq (MHz)", "peak (dBm)", xs, ys)
	return &Result{
		ID: "fig16", Title: "Fast EM resonance sweep on Athlon II", Text: text,
		Values: map[string]float64{"resonance_hz": res.ResonanceHz},
	}, nil
}

// runFig17 reproduces Figure 17: the EM-driven GA on the AMD CPU converges
// to nearly the same frequency the fast sweep finds.
func runFig17(c *Context) (*Result, error) {
	res, err := c.Virus(VirusAMDEM)
	if err != nil {
		return nil, err
	}
	gens, bestDBm, domMHz := gaSeries(res)
	var b strings.Builder
	b.WriteString(report.Series("EM peak amplitude (Athlon II)", "generation", "peak (dBm)", gens, bestDBm))
	b.WriteString(report.Series("Dominant frequency (Athlon II)", "generation", "freq (MHz)", gens, domMHz))
	return &Result{
		ID: "fig17", Title: "EM-driven GA on Athlon II", Text: b.String(),
		Values: map[string]float64{
			"amplitude_gain_db":  bestDBm[len(bestDBm)-1] - bestDBm[0],
			"final_dominant_mhz": domMHz[len(domMHz)-1],
		},
	}, nil
}

// fig18Order is the workload order of the Figure 18 bars.
var fig18Order = []string{
	"idle", "webxprt", "geekbench", "blender", "cinebench", "euler3d",
	"prime95", "amd-stability", "oscVirus", "emVirus",
}

// runFig18 reproduces Figure 18: V_MIN and voltage noise on the AMD
// desktop. The GA viruses beat the dedicated stability tests (Prime95 and
// AMD's own), and the EM virus on just two cores still beats them on four.
func runFig18(c *Context) (*Result, error) {
	d, err := c.AMD.Domain(platform.DomainAthlon)
	if err != nil {
		return nil, err
	}
	loads := make(map[string]platform.Load)
	for _, name := range fig18Order[:len(fig18Order)-2] {
		l, err := buildLoad(d, name, 4)
		if err != nil {
			return nil, err
		}
		loads[name] = l
	}
	_, emV, err := c.virusLoad(VirusAMDEM)
	if err != nil {
		return nil, err
	}
	_, oscV, err := c.virusLoad(VirusAMDOsc)
	if err != nil {
		return nil, err
	}
	loads["emVirus"] = emV
	loads["oscVirus"] = oscV
	rows, err := c.vminCampaign(c.AMDBE, platform.DomainAthlon, loads,
		map[string]bool{"emVirus": true, "oscVirus": true}, fig18Order)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("V_MIN and noise, Athlon II X4 645 (4 cores)",
		"workload", "Vmin", "droop@nominal", "first failure")
	vals := make(map[string]float64)
	for _, r := range rows {
		tb.AddRow(r.Name, report.Volts(r.VminV), report.MV(r.DroopV), r.Kind.String())
		vals[r.Name+"_vmin_v"] = r.VminV
		vals[r.Name+"_droop_mv"] = r.DroopV * 1e3
	}
	// The paper's striking point: the EM virus on two active cores is
	// still more severe than the stability tests on four.
	twoCore := emV
	twoCore.ActiveCores = 2
	twoRows, err := c.vminCampaign(c.AMDBE, platform.DomainAthlon, map[string]platform.Load{"emVirus2": twoCore},
		map[string]bool{"emVirus2": true}, []string{"emVirus2"})
	if err != nil {
		return nil, err
	}
	tb.AddRow("emVirus (2 cores)", report.Volts(twoRows[0].VminV), report.MV(twoRows[0].DroopV),
		twoRows[0].Kind.String())
	vals["emVirus2_vmin_v"] = twoRows[0].VminV
	vals["margin_mv"] = (d.Spec.PDN.VNominal - vals["emVirus_vmin_v"]) * 1e3
	vals["virus_vs_prime95_mv"] = (vals["emVirus_vmin_v"] - vals["prime95_vmin_v"]) * 1e3
	return &Result{ID: "fig18", Title: "V_MIN and noise on Athlon II", Text: tb.String(), Values: vals}, nil
}
