// Command characterize runs the complete EM-only characterization flow on
// one voltage domain and writes a session report:
//
//  1. fast resonance sweep (Section 5.3),
//  2. EM-driven GA virus generation (Sections 3, 5.1),
//  3. V_MIN campaign with the evolved virus and a benchmark set,
//
// all with no voltage probing. The JSON report stores the resonance, the
// virus (as re-runnable assembly) and the V_MIN table.
//
// Usage:
//
//	characterize -platform juno -domain cortex-a72 -cores 2 -out a72.json
//	characterize -platform amd -quick
//	characterize -remote lab-host:9740 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/ga"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	app := cli.New("characterize", flag.CommandLine)
	var (
		quick = flag.Bool("quick", false, "reduced GA scale")
		out   = flag.String("out", "", "write the session report JSON here (default stdout)")
		bench = flag.String("workloads", "idle,lbm,prime95", "benchmarks for the V_MIN comparison")
	)
	flag.Parse()

	stopProf, err := app.StartProfiling()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *quick {
		app.BenchSamples = 5
	}
	be, err := app.Backend()
	if err != nil {
		fatal(err)
	}
	defer be.Close()
	domain, err := app.Domain(be)
	if err != nil {
		fatal(err)
	}
	active, err := app.ActiveCores(be, domain)
	if err != nil {
		fatal(err)
	}
	caps, err := be.Caps(domain)
	if err != nil {
		fatal(err)
	}
	pool := caps.Pool()
	rep, err := app.NewSession(be, domain, 0, time.Now())
	if err != nil {
		fatal(err)
	}

	// 1. Resonance.
	fmt.Fprintf(os.Stderr, "characterize: fast resonance sweep on %s/%s...\n", be.PlatformName(), domain)
	sweep, err := backend.ResonanceSweep(be, domain, active, 0, 0)
	if err != nil {
		fatal(err)
	}
	rep.SetSweep(sweep)
	fmt.Fprintf(os.Stderr, "  first-order resonance: %s\n", report.MHz(sweep.ResonanceHz))

	// 2. Virus.
	cfg := ga.DefaultConfig(pool)
	cfg.Seed = *app.Seed
	cfg.Parallelism = *app.Jobs
	if *quick {
		cfg.PopulationSize, cfg.Generations = 20, 15
	}
	fmt.Fprintf(os.Stderr, "characterize: evolving dI/dt virus (%dx%d)...\n",
		cfg.PopulationSize, cfg.Generations)
	measurer, err := be.Measurer(backend.MeasurerSpec{
		Domain: domain, Metric: backend.MetricEM, ActiveCores: active,
	})
	if err != nil {
		fatal(err)
	}
	virus, err := ga.Run(cfg, measurer, nil)
	if err != nil {
		fatal(err)
	}
	rep.SetVirus(pool, virus)
	fmt.Fprintf(os.Stderr, "  virus dominant: %s (%s)\n",
		report.MHz(virus.Best.DominantHz), report.DBm(virus.Best.Fitness))

	// 3. V_MIN campaign.
	runVmin := func(label string, load platform.Load) {
		res, _, err := be.Vmin(domain, load, 0, *app.Seed+1, 1)
		if err != nil {
			fatal(fmt.Errorf("vmin of %s: %w", label, err))
		}
		rep.AddVmin(label, res)
		fmt.Fprintf(os.Stderr, "  %-12s Vmin %s (margin %s)\n",
			label, report.Volts(res.VminV), report.MV(res.MarginV))
	}
	fmt.Fprintln(os.Stderr, "characterize: V_MIN campaign...")
	for _, wn := range splitList(*bench) {
		w, err := workload.ByName(wn)
		if err != nil {
			fatal(err)
		}
		seq, err := w.Build(pool)
		if err != nil {
			fatal(err)
		}
		runVmin(w.Name, platform.Load{Seq: seq, ActiveCores: active})
	}
	runVmin("emVirus", platform.Load{Seq: virus.Best.Seq, ActiveCores: active})

	// Emit the report.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.Save(w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "characterize: report written to %s\n", *out)
	}
	app.MaybePrintStats(be, domain)
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
