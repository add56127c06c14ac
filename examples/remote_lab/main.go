// Remote lab: the paper's distributed setup (Section 3.2) — the GA runs on
// a workstation, each individual's source is shipped to the target machine,
// assembled and executed there, measured with the bench instruments, then
// killed. Here both ends run in one process over a loopback TCP socket, but
// the protocol is the same one `cmd/labtarget` serves, so the workstation
// half works unchanged against a remote daemon.
//
// The workstation side talks only through the MeasureBackend interface —
// the same one every command uses — so the identical campaign also runs on
// a LocalBackend, and this example does exactly that to show the two are
// bit-identical. To show the transport earning its keep, the remote half
// goes through a deterministic fault-injection proxy that drops
// connections mid-command, delays replies past the client's deadline and
// garbles reply lines (measurements are content-deterministic, so retries
// cannot change them).
//
//	go run ./examples/remote_lab
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	emnoise "repro"
)

func main() {
	// Target machine side: the platform under test plus the instruments,
	// served as a lab daemon.
	plat, err := emnoise.JunoR2()
	if err != nil {
		log.Fatal(err)
	}
	bench, err := emnoise.NewBench(plat, 1)
	if err != nil {
		log.Fatal(err)
	}
	bench.Samples = 5
	srv, err := emnoise.NewLabServer(bench)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("labtarget serving on %s\n", ln.Addr())

	// A reference rig — same platform, same seed — driven locally through
	// the same interface, to prove the remote bytes.
	refPlat, err := emnoise.JunoR2()
	if err != nil {
		log.Fatal(err)
	}
	refBench, err := emnoise.NewBench(refPlat, 1)
	if err != nil {
		log.Fatal(err)
	}
	refBench.Samples = 5
	refBench.Parallelism = 8
	local, err := emnoise.NewLocalBackend(refBench)
	if err != nil {
		log.Fatal(err)
	}

	// A flaky network between workstation and target: seeded faults on the
	// reply path — dropped connections, delayed and corrupted replies.
	proxy, err := emnoise.NewChaosProxy(ln.Addr().String(), emnoise.ChaosConfig{
		Seed:       7,
		DropRate:   0.04,
		GarbleRate: 0.03,
		DelayRate:  0.01,
		Delay:      400 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	fmt.Printf("chaos proxy (drops, delays, garbles) on %s\n", proxy.Addr())

	// Workstation side: one remote backend over the proxied socket, backed
	// by a pool of 8 sessions (sweep -remote ADDR -j 8 builds exactly this).
	remote, err := emnoise.NewRemoteBackend(proxy.Addr(), 8, emnoise.LabOptions{
		IOTimeout:   200 * time.Millisecond,
		MaxAttempts: 8,
		BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	remote.Samples = 5

	fmt.Printf("connected to %s (domains %v)\n", remote.PlatformName(), remote.Domains())

	// Capability query: the daemon advertises what each domain can
	// measure, so impossible requests fail up front with a typed error
	// instead of mid-campaign.
	caps, err := remote.Caps(emnoise.DomainA72)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d cores, voltage visibility %q\n",
		emnoise.DomainA72, caps.TotalCores, caps.VoltageVisibility)
	_, err = remote.Measurer(emnoise.BackendMeasurerSpec{
		Domain: emnoise.DomainA53, Metric: emnoise.MetricDroop, ActiveCores: 4,
	})
	fmt.Printf("droop on the voltage-blind A53 refused up front (typed: %v): %v\n",
		emnoise.IsCapabilityError(err), err)

	// Remote fast sweep vs the local reference.
	rsw, err := emnoise.BackendResonanceSweep(remote, emnoise.DomainA72, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	lsw, err := emnoise.BackendResonanceSweep(local, emnoise.DomainA72, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote sweep: resonance %.1f MHz (peak %.1f dBm) — matches local: %v\n",
		rsw.ResonanceHz/1e6, rsw.PeakDBm, rsw.ResonanceHz == lsw.ResonanceHz && rsw.PeakDBm == lsw.PeakDBm)

	// The GA through the backend's measurer factory: each parallel fitness
	// evaluation checks a session out of the pool and ships its individual
	// over the wire.
	cfg := emnoise.DefaultGAConfig(caps.Pool())
	cfg.PopulationSize = 16
	cfg.Generations = 8
	cfg.Parallelism = 8
	spec := emnoise.BackendMeasurerSpec{
		Domain: emnoise.DomainA72, Metric: emnoise.MetricEM, ActiveCores: 2, Samples: 5,
	}
	rm, err := remote.Measurer(spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := emnoise.RunGA(cfg, rm, func(s emnoise.GAStats) {
		fmt.Printf("gen %d: best %.2f dBm @ %.1f MHz\n",
			s.Gen, s.BestFitness, s.BestDominant/1e6)
	})
	if err != nil {
		log.Fatal(err)
	}
	lm, err := local.Measurer(spec)
	if err != nil {
		log.Fatal(err)
	}
	lres, err := emnoise.RunGA(cfg, lm, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote GA best %.2f dBm — matches local: %v\n",
		res.Best.Fitness, res.Best.Fitness == lres.Best.Fitness)

	// V_MIN of the evolved virus, worst of 3, on both backends.
	load := emnoise.Load{Seq: res.Best.Seq, ActiveCores: 2}
	vres, _, err := remote.Vmin(emnoise.DomainA72, load, 3, 3)
	if err != nil {
		log.Fatal(err)
	}
	lvres, _, err := local.Vmin(emnoise.DomainA72, load, 3, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virus V_MIN (remote, worst of 3): %.3f V, margin %.0f mV (%s) — matches local: %v\n",
		vres.VminV, vres.MarginV*1e3, vres.Outcome, vres.VminV == lvres.VminV)

	// What the transport absorbed along the way.
	cs := proxy.Stats()
	fmt.Printf("chaos injected: %d drops, %d delays, %d garbles over %d connection(s)\n",
		cs.Drops, cs.Delays, cs.Garbles, cs.Conns)
	fmt.Println(remote.TransportStats().String())
}
