// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -list
//	repro -exp fig7 [-quick] [-seed N]
//	repro -exp all  [-quick] [-seed N]
//	repro -exp fig11 -remote juno-rig:9740,amd-rig:9741
//
// Each experiment prints its report (series and tables) followed by its
// headline values. Without -quick the paper-scale settings are used
// (50x60 GA runs, 30 V_MIN repetitions), which takes a few minutes for the
// full suite. With -remote the measurement-driven experiments run against
// labtarget daemons (comma-separated addresses, matched to platforms by
// the daemons' own identity); daemons seeded seed+1 (juno) and seed+2
// (amd) reproduce the local bytes exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/isa"
)

func main() {
	app := cli.New("repro", flag.CommandLine)
	var (
		exp   = flag.String("exp", "", "experiment id (fig1b..fig18, tab1, tab2, ext-*), \"all\", \"ext\" or \"everything\"")
		quick = flag.Bool("quick", false, "reduced GA/repetition scale (seconds instead of minutes)")
		list  = flag.Bool("list", false, "list available experiments")
		out   = flag.String("out", "", "also write per-experiment reports and a summary.md into this directory")
	)
	flag.Parse()

	stopProf, err := app.StartProfiling()
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	if _, err := app.InstallCache(); err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "repro: pass -exp <id|all> or -list")
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *app.Seed, Parallelism: *app.Jobs}
	if *app.Platform != "" {
		// Substitute the platform for the experiment slot its ISA
		// matches: an x86 first domain replaces the AMD desktop, anything
		// else replaces the Juno board.
		p, err := cli.BuildPlatform(*app.Platform)
		if err != nil {
			fatal(err)
		}
		if p.Domains()[0].Spec.ISA == isa.X86 {
			opts.AMDPlatform = *app.Platform
		} else {
			opts.JunoPlatform = *app.Platform
		}
	}
	if *app.Remote != "" {
		backends, closeAll, err := cli.RemoteBackends(*app.Remote, *app.Jobs)
		if err != nil {
			fatal(err)
		}
		defer closeAll()
		opts.Backends = backends
	}
	ctx, err := experiments.NewContext(opts)
	if err != nil {
		fatal(err)
	}
	// After the reports: each experiment backend's evaluation statistics
	// (transport counters for a remote rig), then the process-wide lines.
	defer app.MaybePrintStatsEach([]backend.Backend{ctx.JunoBE, ctx.AMDBE})
	var toRun []experiments.Experiment
	switch *exp {
	case "all":
		toRun = experiments.All()
	case "ext":
		toRun = experiments.Extensions()
	case "everything":
		toRun = append(experiments.All(), experiments.Extensions()...)
	default:
		e, err := experiments.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		toRun = []experiments.Experiment{e}
	}
	var results []*experiments.Result
	for _, e := range toRun {
		res, err := e.Run(ctx)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		results = append(results, res)
		fmt.Printf("==== %s: %s ====\n\n", res.ID, res.Title)
		fmt.Println(res.Text)
		fmt.Println("headline values:")
		for _, k := range keys(res.Values) {
			fmt.Printf("  %-32s %.6g\n", k, res.Values[k])
		}
		fmt.Println()
	}
	if *out != "" {
		if err := writeReports(*out, results); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "repro: reports written to %s\n", *out)
	}
}

// writeReports dumps each experiment's report to <dir>/<id>.txt and a
// machine-diffable summary of headline values to <dir>/summary.md.
func writeReports(dir string, results []*experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var md strings.Builder
	md.WriteString("# Experiment summary\n\n| experiment | metric | value |\n|---|---|---|\n")
	for _, res := range results {
		body := fmt.Sprintf("%s: %s\n\n%s", res.ID, res.Title, res.Text)
		if err := os.WriteFile(filepath.Join(dir, res.ID+".txt"), []byte(body), 0o644); err != nil {
			return err
		}
		for _, k := range keys(res.Values) {
			fmt.Fprintf(&md, "| %s | %s | %.6g |\n", res.ID, k, res.Values[k])
		}
	}
	return os.WriteFile(filepath.Join(dir, "summary.md"), []byte(md.String()), 0o644)
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
