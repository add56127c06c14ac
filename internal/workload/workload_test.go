package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

func TestAllWorkloadsBuildOnBothPools(t *testing.T) {
	for _, pool := range []*isa.Pool{isa.ARM64Pool(), isa.X86Pool()} {
		for _, w := range All() {
			seq, err := w.Build(pool)
			if err != nil {
				t.Errorf("%s on %v: %v", w.Name, pool.Arch, err)
				continue
			}
			if len(seq) == 0 {
				t.Errorf("%s on %v: empty loop", w.Name, pool.Arch)
			}
			for i, in := range seq {
				if in.Def == nil {
					t.Fatalf("%s on %v: nil def at %d", w.Name, pool.Arch, i)
				}
				limit := pool.IntRegs
				if in.Def.RegFile == isa.RegVec {
					limit = pool.VecRegs
				}
				if in.Dest < 0 || in.Dest >= limit {
					t.Fatalf("%s: dest out of range", w.Name)
				}
				if in.Def.Mem != isa.MemNone && (in.Addr < 0 || in.Addr >= pool.MemSlots) {
					t.Fatalf("%s: addr out of range", w.Name)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("lbm")
	if err != nil || w.Name != "lbm" {
		t.Fatalf("ByName(lbm) = %v, %v", w.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown workload found")
	}
}

func TestSuiteSizes(t *testing.T) {
	if n := len(SPECSuite()); n != 10 {
		t.Errorf("SPEC suite has %d entries", n)
	}
	if n := len(DesktopSuite()); n != 7 {
		t.Errorf("desktop suite has %d entries", n)
	}
	names := map[string]bool{}
	for _, w := range All() {
		if names[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
		if w.Description == "" {
			t.Errorf("%s has no description", w.Name)
		}
	}
}

// The electrical orderings the proxies are designed for.
func TestWorkloadCurrentOrdering(t *testing.T) {
	pool := isa.ARM64Pool()
	cfg := uarch.CortexA72()
	mean := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.Build(pool)
		if err != nil {
			t.Fatal(err)
		}
		cl := power.ClusterLoad{Core: cfg, Seq: seq, ClockHz: 1.2e9, ActiveCores: 1}
		wave := make([]float64, 2048)
		if _, err := cl.CurrentInto(wave, 0.5e-9, 2048); err != nil {
			t.Fatal(err)
		}
		return power.MeanCurrent(wave)
	}
	idle := mean("idle")
	mcf := mean("mcf")
	lbm := mean("lbm")
	prime := mean("prime95")
	if idle >= mcf || idle >= lbm {
		t.Errorf("idle %v not the lowest: mcf %v, lbm %v", idle, mcf, lbm)
	}
	if prime <= lbm || prime <= mcf {
		t.Errorf("prime95 %v not the power hog vs lbm %v / mcf %v", prime, lbm, mcf)
	}
}

func TestProbeLoopHasTwoPhases(t *testing.T) {
	pool := isa.ARM64Pool()
	seq, err := Probe().Build(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 9 {
		t.Fatalf("probe loop has %d instructions", len(seq))
	}
	res, err := uarch.Run(uarch.CortexA53(), seq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	steady := res.SteadyCharge()
	min, max := steady[0], steady[0]
	for _, q := range steady {
		if q < min {
			min = q
		}
		if q > max {
			max = q
		}
	}
	if max < 2*min {
		t.Errorf("probe loop lacks current contrast: %v..%v", min, max)
	}
}

// The same electrical orderings must hold on the x86 pool / desktop core.
func TestWorkloadCurrentOrderingX86(t *testing.T) {
	pool := isa.X86Pool()
	cfg := uarch.AthlonII()
	mean := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.Build(pool)
		if err != nil {
			t.Fatal(err)
		}
		cl := power.ClusterLoad{Core: cfg, Seq: seq, ClockHz: 3.1e9, ActiveCores: 1}
		wave := make([]float64, 2048)
		if _, err := cl.CurrentInto(wave, 0.25e-9, 2048); err != nil {
			t.Fatal(err)
		}
		return power.MeanCurrent(wave)
	}
	idle := mean("idle")
	prime := mean("prime95")
	webxprt := mean("webxprt")
	if idle >= webxprt || idle >= prime {
		t.Errorf("idle %v not the lowest: webxprt %v, prime95 %v", idle, webxprt, prime)
	}
	if prime <= webxprt {
		t.Errorf("prime95 %v not above webxprt %v", prime, webxprt)
	}
}
