package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/vmin"
)

// runTab1 reproduces Table 1: the experimental platform inventory.
func runTab1(c *Context) (*Result, error) {
	tb := report.NewTable("Experimental platforms (Table 1)",
		"MB", "CPU", "cores", "ISA", "uArch", "max point", "node (nm)", "OS", "voltage visibility")
	vals := make(map[string]float64)
	for _, p := range []*platform.Platform{c.Juno, c.AMD} {
		for _, d := range p.Domains() {
			s := d.Spec
			uarchKind := "in-order"
			if s.Core.OutOfOrder {
				uarchKind = "out-of-order"
			}
			tb.AddRow(
				s.Board, s.Name, fmt.Sprintf("%d", s.TotalCores), s.ISA.String(), uarchKind,
				fmt.Sprintf("%.2g GHz, %.3g V", s.MaxClockHz/1e9, s.PDN.VNominal),
				fmt.Sprintf("%d", s.TechNode), s.OS, s.VoltageVisibility,
			)
			vals[s.Name+"_cores"] = float64(s.TotalCores)
			vals[s.Name+"_max_hz"] = s.MaxClockHz
			vals[s.Name+"_vnom"] = s.PDN.VNominal
		}
	}
	return &Result{ID: "tab1", Title: "Experimental platforms", Text: tb.String(), Values: vals}, nil
}

// runTab2 reproduces Table 2: the generated viruses compared by IPC, loop
// period/frequency, dominant frequency, voltage margin and instruction mix.
func runTab2(c *Context) (*Result, error) {
	tb := report.NewTable("dI/dt virus comparison (Table 2)",
		"virus", "loop instr", "IPC", "loop period (ns)", "loop freq (MHz)",
		"dominant (MHz)", "margin (mV)", "branch", "SL int", "LL int", "int-mem", "float", "SIMD", "mem")
	vals := make(map[string]float64)
	for _, name := range VirusNames() {
		res, err := c.Virus(name)
		if err != nil {
			return nil, err
		}
		d, cores, err := c.VirusDomain(name)
		if err != nil {
			return nil, err
		}
		load := platform.Load{Seq: res.Best.Seq, ActiveCores: cores}
		// Loop metrics from the micro-architectural model at max clock.
		loopHz, ur, err := d.LoopHzAt(load, c.JunoBench.Dt, 2048, d.ClockHz())
		if err != nil {
			return nil, err
		}
		periodNs := 1e9 / loopHz
		// Margin from a V_MIN search on the virus.
		tester := vmin.NewTester(d, c.Opts.Seed+60)
		vres, err := tester.Search(load)
		if err != nil {
			return nil, err
		}
		mix := isa.MixBreakdown(res.Best.Seq)
		tb.AddRow(name,
			fmt.Sprintf("%d", len(res.Best.Seq)),
			fmt.Sprintf("%.2f", ur.IPC),
			fmt.Sprintf("%.2f", periodNs),
			fmt.Sprintf("%.2f", loopHz/1e6),
			fmt.Sprintf("%.2f", res.Best.DominantHz/1e6),
			fmt.Sprintf("%.1f", vres.MarginV*1e3),
			mixPct(mix, isa.Branch),
			mixPct(mix, isa.IntShort),
			mixPct(mix, isa.IntLong),
			mixPct(mix, isa.IntShortMem, isa.IntLongMem),
			mixPct(mix, isa.Float),
			mixPct(mix, isa.SIMD),
			mixPct(mix, isa.Mem),
		)
		vals[name+"_ipc"] = ur.IPC
		vals[name+"_loop_hz"] = loopHz
		vals[name+"_dominant_hz"] = res.Best.DominantHz
		vals[name+"_margin_mv"] = vres.MarginV * 1e3
		vals[name+"_mix_simd"] = mix[isa.SIMD]
		vals[name+"_mix_float"] = mix[isa.Float]
	}
	return &Result{ID: "tab2", Title: "dI/dt virus comparison", Text: tb.String(), Values: vals}, nil
}
