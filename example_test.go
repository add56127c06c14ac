package emnoise_test

import (
	"fmt"

	emnoise "repro"
)

// The antenna model is deterministic, so its headline numbers make a
// stable documentation example.
func ExampleDefaultLoopAntenna() {
	ant := emnoise.DefaultLoopAntenna()
	fmt.Printf("self-resonance: %.2f GHz\n", ant.SelfResonanceHz/1e9)
	fmt.Printf("|S11| at 100 MHz: %.2f (fully mismatched, flat)\n", ant.S11(100e6))
	fmt.Printf("|S11| at resonance: %.2f (deep dip)\n", ant.S11(ant.SelfResonanceHz))
	// Output:
	// self-resonance: 2.95 GHz
	// |S11| at 100 MHz: 1.00 (fully mismatched, flat)
	// |S11| at resonance: 0.25 (deep dip)
}

// Platforms expose their calibrated PDNs; the analytic first-order
// resonance follows 1/(2π·sqrt(L·C)) with per-core die capacitance.
func ExampleJunoR2() {
	plat, err := emnoise.JunoR2()
	if err != nil {
		panic(err)
	}
	a72, err := plat.Domain(emnoise.DomainA72)
	if err != nil {
		panic(err)
	}
	m, err := a72.Model()
	if err != nil {
		panic(err)
	}
	fmt.Printf("die capacitance, both cores: %.1f nF\n", m.CDie()*1e9)
	// The analytic estimate ignores damping and decap parasitics, so it
	// sits above the true impedance peak (~67 MHz on this domain).
	fmt.Printf("analytic first-order resonance: %.1f MHz\n", m.FirstOrderResonance()/1e6)
	// Output:
	// die capacitance, both cores: 31.3 nF
	// analytic first-order resonance: 76.9 MHz
}

// Stress loops serialize as assembly text — this is how individuals travel
// to the lab daemon and how viruses are stored in session reports.
func ExampleFormatProgram() {
	pool := emnoise.ARM64Pool()
	add, _ := pool.DefByMnemonic("add")
	ldr, _ := pool.DefByMnemonic("ldr")
	seq := []emnoise.Inst{
		{Def: add, Dest: 1, Srcs: [2]int{2, 3}},
		{Def: ldr, Dest: 4, Addr: 2},
	}
	fmt.Print(emnoise.FormatProgram(pool, seq))
	// Output:
	// # pool: arm64
	// loop:
	// 	add x1, x2, x3
	// 	ldr x4, [m2]
	// 	b loop
}

// Power-gating cores removes die capacitance and raises the resonance —
// the Section 6 effect the EM sweep observes from outside the package.
// Each powered-core count is its own view of the domain.
func ExampleDomain_Gated() {
	plat, err := emnoise.JunoR2()
	if err != nil {
		panic(err)
	}
	a53, err := plat.Domain(emnoise.DomainA53)
	if err != nil {
		panic(err)
	}
	for _, cores := range []int{4, 1} {
		gated, err := a53.Gated(cores)
		if err != nil {
			panic(err)
		}
		m, err := gated.Model()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d cores powered: %.1f MHz\n", cores, m.FirstOrderResonance()/1e6)
	}
	// Output:
	// 4 cores powered: 93.3 MHz
	// 1 cores powered: 118.3 MHz
}
