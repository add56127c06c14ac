// Resonance sweep: the paper's Section 5.3 "15-minute" method applied to
// all three CPUs — the dual-core Cortex-A72, the quad-core Cortex-A53 and
// the Athlon II X4 — including the power-gating experiment where gating
// cores removes die capacitance and pushes the resonance up (Figure 13).
//
//	go run ./examples/resonance_sweep
package main

import (
	"fmt"
	"log"

	emnoise "repro"
)

func main() {
	juno, err := emnoise.JunoR2()
	if err != nil {
		log.Fatal(err)
	}
	amd, err := emnoise.AMDDesktop()
	if err != nil {
		log.Fatal(err)
	}
	junoBench, err := emnoise.NewBench(juno, 1)
	if err != nil {
		log.Fatal(err)
	}
	amdBench, err := emnoise.NewBench(amd, 2)
	if err != nil {
		log.Fatal(err)
	}
	junoBench.Samples, amdBench.Samples = 10, 10

	type run struct {
		bench   *emnoise.Bench
		plat    *emnoise.Platform
		domain  string
		powered int
	}
	runs := []run{
		{junoBench, juno, emnoise.DomainA72, 2},
		{junoBench, juno, emnoise.DomainA72, 1},
		{junoBench, juno, emnoise.DomainA53, 4},
		{junoBench, juno, emnoise.DomainA53, 3},
		{junoBench, juno, emnoise.DomainA53, 2},
		{junoBench, juno, emnoise.DomainA53, 1},
		{amdBench, amd, emnoise.DomainAthlon, 4},
	}
	fmt.Println("CPU                powered   first-order resonance")
	for _, r := range runs {
		d, err := r.plat.Domain(r.domain)
		if err != nil {
			log.Fatal(err)
		}
		gated, err := d.Gated(r.powered)
		if err != nil {
			log.Fatal(err)
		}
		res, err := r.bench.FastResonanceSweep(gated, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %7d   %6.1f MHz\n", r.domain, r.powered, res.ResonanceHz/1e6)
	}
	fmt.Println("\nnote how gating cores raises each cluster's resonance: less die")
	fmt.Println("capacitance means a faster (and harder to mitigate) oscillation.")
}
