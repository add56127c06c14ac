// Command sweep runs the paper's fast EM resonance sweep (Section 5.3):
// the two-phase probe loop executes while the CPU clock steps through its
// range, and the loop frequency with the strongest emission reveals the
// PDN's first-order resonance — in minutes, with no voltage probing.
//
// Usage:
//
//	sweep -platform juno -domain cortex-a72 -powered 2 -active 2
//	sweep -platform juno -domain cortex-a53 -powered 1 -active 1
//	sweep -platform amd
//	sweep -remote lab-host:9740 -active 2
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/report"
)

func main() {
	app := cli.New("sweep", flag.CommandLine)
	var (
		powered = flag.Int("powered", 0, "powered cores (default: all)")
		active  = flag.Int("active", 1, "cores running the probe loop")
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
	if *powered > 0 {
		if err := be.SetPoweredCores(domain, *powered); err != nil {
			app.Fatal(err)
		}
	}
	st, err := be.State(domain)
	if err != nil {
		app.Fatal(err)
	}

	if f, ok := be.(*fleet.Fleet); ok {
		fmt.Printf("sweep: clock grid shards across a fleet of %d rigs\n", f.Size())
	}
	res, err := backend.ResonanceSweep(be, domain, *active, 0)
	if err != nil {
		app.Fatal(err)
	}
	xs := make([]float64, len(res.Points))
	ys := make([]float64, len(res.Points))
	for i, pt := range res.Points {
		xs[i] = pt.LoopHz / 1e6
		ys[i] = pt.PeakDBm
	}
	fmt.Print(report.Series(
		fmt.Sprintf("Fast EM sweep: %s/%s, %d powered / %d active cores",
			be.PlatformName(), domain, st.PoweredCores, *active),
		"loop freq (MHz)", "peak (dBm)", xs, ys))
	fmt.Printf("\nfirst-order resonance estimate: %s (peak %s)\n",
		report.MHz(res.ResonanceHz), report.DBm(res.PeakDBm))
	if *app.Session != "" {
		rep, err := app.NewSession(be, domain, time.Now())
		if err != nil {
			app.Fatal(err)
		}
		rep.SetSweep(res)
		if err := app.SaveSession(rep); err != nil {
			app.Fatal(err)
		}
	}
	app.MaybePrintStats(be, domain)
}
