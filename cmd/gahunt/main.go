// Command gahunt runs a GA stress-test (dI/dt virus) search on a platform,
// driven by EM feedback (the paper's methodology) or — on domains with
// voltage visibility — by direct droop or peak-to-peak measurements.
//
// Usage:
//
//	gahunt -platform juno -domain cortex-a72 -cores 2 [-metric em]
//	gahunt -platform amd -domain athlon-ii-x4 -metric droop -out virus.s
//	gahunt -remote host:9740 -domain cortex-a72 -cores 2 -j 8
//
// With -remote the individuals are shipped to a labtarget daemon and
// measured there (the paper's workstation/target split) over a pool of -j
// resilient connections: per-command deadlines, retry with reconnect and
// setpoint replay, so a flaky link degrades throughput, not results.
// `-v` prints the transport's dial/reconnect/replay and per-command
// latency counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/isa"
)

func main() {
	app := cli.New("gahunt", flag.CommandLine)
	var (
		metric  = flag.String("metric", "em", "fitness: em, droop or ptp")
		pop     = flag.Int("pop", 50, "population size")
		gens    = flag.Int("gens", 60, "generations")
		seqLen  = flag.Int("len", 50, "instructions per individual")
		out     = flag.String("out", "", "write the winning virus as assembly to this file")
		islands = flag.Int("islands", 1, "island-model populations, >= 1 (1 = classic single population); every max(1, gens/6) generations each island sends its 2 best to the next around a ring")
	)
	flag.Parse()

	stopProf, err := app.StartProfiling()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	m, err := backend.ParseMetric(*metric)
	if err != nil {
		fatal(err)
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
	caps, err := be.Caps(domain)
	if err != nil {
		fatal(err)
	}
	pool := caps.Pool()
	cfg := ga.DefaultConfig(pool)
	cfg.PopulationSize = *pop
	cfg.Generations = *gens
	cfg.SeqLen = *seqLen
	cfg.Seed = *app.Seed
	cfg.Parallelism = *app.Jobs

	measurer, err := be.Measurer(backend.MeasurerSpec{
		Domain:      domain,
		Metric:      m,
		ActiveCores: *app.Cores,
		Samples:     *app.Samples,
		DSOSeed:     *app.Seed,
	})
	if err != nil {
		fatal(err)
	}

	icfg := ga.IslandConfig{
		Base:              cfg,
		Islands:           *islands,
		MigrationInterval: max(1, *gens/6),
		Migrants:          2,
	}
	fmt.Printf("gahunt: %s/%s, %d cores, metric=%s, %dx%d, %d island(s)\n",
		be.PlatformName(), domain, *app.Cores, *metric, *pop, *gens, *islands)
	if f, ok := be.(*fleet.Fleet); ok {
		fmt.Printf("gahunt: generations shard across a fleet of %d rigs\n", f.Size())
	}
	start := time.Now()
	res, err := ga.RunIslands(icfg, measurer, func(s ga.IslandStats) {
		if *islands > 1 {
			fmt.Printf("isl %d ", s.Island)
		}
		fmt.Printf("gen %3d: best %8.2f  mean %8.2f  dominant %7.2f MHz\n",
			s.Gen, s.BestFitness, s.MeanFitness, s.BestDominant/1e6)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("done in %v: best fitness %.2f, dominant %.2f MHz\n",
		time.Since(start).Round(time.Millisecond), res.Best.Fitness, res.Best.DominantHz/1e6)
	app.MaybePrintStats(be, domain)
	if *app.Session != "" {
		rep, err := app.NewSession(be, domain, 0, time.Now())
		if err != nil {
			fatal(err)
		}
		rep.SetVirus(pool, res)
		if err := app.SaveSession(rep); err != nil {
			fatal(err)
		}
	}
	text := isa.FormatProgram(pool, res.Best.Seq)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("virus written to %s\n", *out)
	} else {
		fmt.Println(text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gahunt:", err)
	os.Exit(1)
}
