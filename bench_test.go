package emnoise

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). Each BenchmarkFigN/BenchmarkTabN
// times one full regeneration of that artifact and reports its headline
// numbers as custom metrics, so `bench_output.txt` doubles as the
// paper-versus-measured record. The Ablation benchmarks quantify the design
// choices called out in DESIGN.md Section 6.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

// benchContext shares one experiment context (and its cached GA viruses)
// across the whole harness, as the experiments themselves do.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(experiments.Options{Quick: true, Seed: 7})
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

// runExperiment benches one experiment and publishes its headline values.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	ctx := benchContext(b)
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for _, k := range sortedKeys(last.Values) {
		b.ReportMetric(last.Values[k], k)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func BenchmarkFig1bImpedance(b *testing.B)        { runExperiment(b, "fig1b") }
func BenchmarkFig1cStepResponse(b *testing.B)     { runExperiment(b, "fig1c") }
func BenchmarkFig2Resonance(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig4Waveforms(b *testing.B)         { runExperiment(b, "fig4") }
func BenchmarkFig6Antenna(b *testing.B)           { runExperiment(b, "fig6") }
func BenchmarkFig7GACortexA72(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8SCLSweep(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig9SpectrumAgreement(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10VminA72(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11FastSweepA72(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12GACortexA53(b *testing.B)      { runExperiment(b, "fig12") }
func BenchmarkFig13PowerGating(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14VminA53(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15MultiDomain(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkFig16FastSweepAMD(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkFig17GAAMD(b *testing.B)            { runExperiment(b, "fig17") }
func BenchmarkFig18VminAMD(b *testing.B)          { runExperiment(b, "fig18") }
func BenchmarkTable1Platforms(b *testing.B)       { runExperiment(b, "tab1") }
func BenchmarkTable2Viruses(b *testing.B)         { runExperiment(b, "tab2") }

// BenchmarkAblationGAOperators sweeps the GA mutation rate (the paper uses
// 2-4%) and reports the best fitness each rate reaches under a fixed
// evaluation budget.
func BenchmarkAblationGAOperators(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0.0, 0.01, 0.03, 0.10, 0.30} {
		b.Run(fmt.Sprintf("mutation=%.2f", rate), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				cfg := ga.DefaultConfig(d.Spec.Pool())
				cfg.PopulationSize = 16
				cfg.Generations = 10
				cfg.MutationRate = rate
				cfg.Seed = 42
				res, err := bench.GenerateVirus(d, cfg, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				best = res.Best.Fitness
			}
			b.ReportMetric(best, "best_dbm")
		})
	}
}

// BenchmarkAblationSampleCount quantifies the paper's 30-sample averaging:
// the per-measurement noise (stdev across repeated measurements of the same
// individual) shrinks with the sample count, which is what lets tournament
// selection see small fitness differences.
func BenchmarkAblationSampleCount(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	w, err := WorkloadByName("probe")
	if err != nil {
		b.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{1, 5, 30} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			var noise float64
			for i := 0; i < b.N; i++ {
				const reps = 12
				vals := make([]float64, reps)
				for r := 0; r < reps; r++ {
					// Measurement noise is a pure function of (seed,
					// content), so repeated measurements only spread when
					// the analyzer seed differs per repetition.
					bench, err := NewBench(plat, 99+int64(r))
					if err != nil {
						b.Fatal(err)
					}
					bench.Samples = samples
					m, err := bench.EMMeasure(d, Load{Seq: seq, ActiveCores: 2})
					if err != nil {
						b.Fatal(err)
					}
					vals[r] = m.PeakDBm
				}
				var mean float64
				for _, v := range vals {
					mean += v
				}
				mean /= reps
				var acc float64
				for _, v := range vals {
					acc += (v - mean) * (v - mean)
				}
				noise = math.Sqrt(acc / reps)
			}
			b.ReportMetric(noise, "stdev_db")
		})
	}
}

// BenchmarkAblationInstructionPool tests the Section 8.3 claim that the GA
// needs a diverse instruction mix: an integer-only pool reaches a clearly
// lower EM amplitude than the full pool under the same budget.
func BenchmarkAblationInstructionPool(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	full := d.Spec.Pool()
	var intDefs []isa.Def
	for _, def := range full.Defs {
		if def.Class == isa.IntShort || def.Class == isa.IntLong {
			intDefs = append(intDefs, def)
		}
	}
	intOnly, err := isa.NewPool(full.Arch, intDefs, full.IntRegs, full.VecRegs, full.MemSlots)
	if err != nil {
		b.Fatal(err)
	}
	pools := map[string]*isa.Pool{"full-mix": full, "int-only": intOnly}
	for _, name := range []string{"full-mix", "int-only"} {
		b.Run(name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				cfg := ga.DefaultConfig(pools[name])
				cfg.PopulationSize = 16
				cfg.Generations = 10
				cfg.Seed = 5
				res, err := bench.GenerateVirus(d, cfg, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				best = res.Best.Fitness
			}
			b.ReportMetric(best, "best_dbm")
		})
	}
}

// BenchmarkGAEvaluation times one fitness evaluation — the unit of cost the
// paper's 15-hour wall-clock estimate is built from (simulated here, the
// instrument latency is gone).
func BenchmarkGAEvaluation(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	m := bench.EMMeasurer(d, 2)
	seq := d.Spec.Pool().RandomSequence(rand.New(rand.NewSource(1)), 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Measure(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAEvaluationParallel runs a fixed GA evaluation budget at
// increasing worker counts. The results are bit-identical at every setting
// (the determinism regression tests enforce it); only the wall clock
// changes. On a >=4-core machine j=4 should be at least 2x faster than j=1.
func BenchmarkGAEvaluationParallel(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	m := bench.EMMeasurer(d, 2)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := ga.DefaultConfig(d.Spec.Pool())
				cfg.PopulationSize, cfg.Generations, cfg.Seed = 24, 3, 11
				cfg.Parallelism = j
				if _, err := ga.Run(cfg, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastSweepParallel times the fast resonance sweep at increasing
// worker counts; every clock point is independent, so the sweep scales to
// the number of points.
func BenchmarkFastSweepParallel(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			bench.Parallelism = j
			for i := 0; i < b.N; i++ {
				if _, err := bench.FastResonanceSweep(d, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench.Parallelism = 0
}

var _ = platform.DomainA72

// Extension benchmarks: the Section 10 future-work artifacts.
func BenchmarkExtGPU(b *testing.B)      { runExperiment(b, "ext-gpu") }
func BenchmarkExtPredict(b *testing.B)  { runExperiment(b, "ext-predict") }
func BenchmarkExtTamper(b *testing.B)   { runExperiment(b, "ext-tamper") }
func BenchmarkExtMitigate(b *testing.B) { runExperiment(b, "ext-mitigate") }
func BenchmarkExtSDR(b *testing.B)      { runExperiment(b, "ext-sdr") }

// BenchmarkAblationIslandGA compares the single-population GA against the
// island model at equal evaluation budgets.
func BenchmarkAblationIslandGA(b *testing.B) {
	plat, err := JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench.Samples = 3
	d, err := plat.Domain(DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	m := bench.EMMeasurer(d, 2)
	b.Run("single-population", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			cfg := ga.DefaultConfig(d.Spec.Pool())
			cfg.PopulationSize, cfg.Generations, cfg.Seed = 16, 12, 3
			res, err := ga.Run(cfg, m, nil)
			if err != nil {
				b.Fatal(err)
			}
			best = res.Best.Fitness
		}
		b.ReportMetric(best, "best_dbm")
	})
	b.Run("three-islands", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			base := ga.DefaultConfig(d.Spec.Pool())
			base.PopulationSize, base.Generations, base.Seed = 16, 12, 3
			cfg := ga.IslandConfig{Base: base, Islands: 3, MigrationInterval: 4, Migrants: 2}
			res, err := ga.RunIslands(cfg, m, nil)
			if err != nil {
				b.Fatal(err)
			}
			best = res.Best.Fitness
		}
		b.ReportMetric(best, "best_dbm")
	})
}
