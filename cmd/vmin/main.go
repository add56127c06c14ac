// Command vmin runs the paper's V_MIN methodology (Section 5.2) over a set
// of workloads: lower the supply in board-granularity steps until any
// deviation from nominal execution appears, and report the highest failing
// voltage, the failure class and the workload's droop at nominal.
//
// Usage:
//
//	vmin -platform juno -domain cortex-a72 -cores 2 -workloads idle,lbm,probe
//	vmin -platform amd -workloads all -repeats 5
//	vmin -remote lab-host:9740 -workloads probe
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/session"
	"repro/internal/vmin"
	"repro/internal/workload"
)

func main() {
	app := cli.New("vmin", flag.CommandLine)
	var (
		names   = flag.String("workloads", "idle,lbm,probe", "comma-separated workloads, or \"all\"")
		repeats = flag.Int("repeats", 1, "repetitions per workload (paper uses 30 for viruses)")
		shmoo   = flag.Bool("shmoo", false, "sweep the clock and report Vmin per frequency instead")
	)
	flag.Parse()

	stopProf, err := app.StartProfiling()
	if err != nil {
		app.Fatal(err)
	}
	defer stopProf()

	be, err := app.Backend()
	if err != nil {
		app.Fatal(err)
	}
	defer be.Close()
	domain, err := app.Domain(be)
	if err != nil {
		app.Fatal(err)
	}
	active, err := app.ActiveCores(be, domain)
	if err != nil {
		app.Fatal(err)
	}
	caps, err := be.Caps(domain)
	if err != nil {
		app.Fatal(err)
	}
	var list []string
	if *names == "all" {
		for _, w := range workload.All() {
			list = append(list, w.Name)
		}
	} else {
		list = strings.Split(*names, ",")
	}
	if f, ok := be.(*fleet.Fleet); ok {
		fmt.Printf("vmin: fleet of %d rigs\n", f.Size())
	}

	if *shmoo {
		runShmoo(app, be, caps, domain, list, active)
		app.MaybePrintStats(be, domain)
		return
	}
	var rep *session.Report
	if *app.Session != "" {
		rep, err = app.NewSession(be, domain, 0, time.Now())
		if err != nil {
			app.Fatal(err)
		}
	}
	tb := report.NewTable(
		fmt.Sprintf("V_MIN on %s/%s (%d active cores, %d repeats)", be.PlatformName(), domain, active, *repeats),
		"workload", "Vmin", "margin", "droop@nominal", "first failure")
	wnames, loads := buildLoads(app, caps, list, active)
	results := make([]*vmin.Result, len(loads))
	if f, ok := be.(*fleet.Fleet); ok {
		// One campaign for the whole workload list: searches shard across
		// the rigs instead of running one by one.
		rs, _, err := f.VminMany(domain, loads, 0, *app.Seed, *repeats)
		if err != nil {
			app.Fatal(err)
		}
		results = rs
	} else {
		for i, load := range loads {
			res, _, err := be.Vmin(domain, load, 0, *app.Seed, *repeats)
			if err != nil {
				app.Fatal(fmt.Errorf("%s: %w", wnames[i], err))
			}
			results[i] = res
		}
	}
	for i, res := range results {
		tb.AddRow(wnames[i], report.Volts(res.VminV), report.MV(res.MarginV),
			report.MV(res.DroopNominalV), res.Outcome.String())
		if rep != nil {
			rep.AddVmin(wnames[i], res)
		}
	}
	fmt.Print(tb.String())
	if rep != nil {
		if err := app.SaveSession(rep); err != nil {
			app.Fatal(err)
		}
	}
	app.MaybePrintStats(be, domain)
}

// buildLoads resolves workload names into index-aligned (name, load)
// lists.
func buildLoads(app *cli.App, caps backend.Caps, list []string, active int) ([]string, []platform.Load) {
	names := make([]string, 0, len(list))
	loads := make([]platform.Load, 0, len(list))
	for _, wn := range list {
		w, err := workload.ByName(strings.TrimSpace(wn))
		if err != nil {
			app.Fatal(err)
		}
		seq, err := w.Build(caps.Pool())
		if err != nil {
			app.Fatal(err)
		}
		names = append(names, w.Name)
		loads = append(loads, platform.Load{Seq: seq, ActiveCores: active})
	}
	return names, loads
}

// runShmoo prints a Vmin-vs-frequency curve per workload. On a fleet the
// whole workloads × clocks lattice is one campaign, sharded cell by cell
// across the rigs.
func runShmoo(app *cli.App, be backend.Backend, caps backend.Caps, domain string, list []string, active int) {
	var clocks []float64
	steps := caps.ClockSteps()
	// Sample ~8 clocks from max downward.
	stride := len(steps) / 8
	if stride < 1 {
		stride = 1
	}
	for i := len(steps) - 1; i >= 0; i -= stride {
		clocks = append(clocks, steps[i])
	}
	wnames, loads := buildLoads(app, caps, list, active)
	var grid [][]vmin.ShmooPoint
	if f, ok := be.(*fleet.Fleet); ok {
		g, err := f.ShmooGrid(domain, loads, 0, *app.Seed, clocks)
		if err != nil {
			app.Fatal(err)
		}
		grid = g
	} else {
		for i, load := range loads {
			points, err := be.VminShmoo(domain, load, 0, *app.Seed, clocks)
			if err != nil {
				app.Fatal(fmt.Errorf("%s: %w", wnames[i], err))
			}
			grid = append(grid, points)
		}
	}
	for i, points := range grid {
		tb := report.NewTable(fmt.Sprintf("Shmoo: %s on %s/%s", wnames[i], be.PlatformName(), domain),
			"clock", "Vmin", "margin")
		for _, pt := range points {
			tb.AddRow(report.MHz(pt.ClockHz), report.Volts(pt.VminV), report.MV(pt.MarginV))
		}
		fmt.Print(tb.String())
		fmt.Println()
	}
}
