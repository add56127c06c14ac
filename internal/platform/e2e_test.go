package platform_test

// End-to-end coverage of the data-only platforms: the registry entries
// that exist purely as spec files (no Go constructor ever existed for
// them) must drive the full measurement stack — bench, backend, EM
// capture, resonance sweep, V_MIN — exactly like the converted builtins.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// runPlatform drives every domain of a built platform through an EM
// measurement, a fast resonance sweep and a short V_MIN campaign.
func runPlatform(t *testing.T, p *platform.Platform) {
	t.Helper()
	b, err := core.NewBench(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b.Samples = 2
	be, err := backend.NewLocal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range be.Domains() {
		caps, err := be.Caps(name)
		if err != nil {
			t.Fatal(err)
		}
		pool := caps.Pool()
		if pool == nil {
			t.Fatalf("%s: no instruction pool for arch %v", name, caps.Arch)
		}
		seq, err := workload.Probe().Build(pool)
		if err != nil {
			t.Fatal(err)
		}
		load := platform.Load{Seq: seq, ActiveCores: caps.TotalCores}
		em, err := be.Measurer(backend.MeasurerSpec{
			Domain: name, Metric: backend.MetricEM, ActiveCores: load.ActiveCores,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, peakHz, err := em.Measure(load.Seq)
		if err != nil {
			t.Fatalf("%s: EM measure: %v", name, err)
		}
		if peakHz <= 0 {
			t.Errorf("%s: non-positive EM peak frequency %g", name, peakHz)
		}
		sw, err := backend.ResonanceSweep(be, name, caps.TotalCores, 1)
		if err != nil {
			t.Fatalf("%s: resonance sweep: %v", name, err)
		}
		if sw.ResonanceHz <= 0 {
			t.Errorf("%s: sweep found no resonant clock", name)
		}
		res, _, err := be.Vmin(name, load, 7, 2)
		if err != nil {
			t.Fatalf("%s: vmin: %v", name, err)
		}
		if res.VminV <= 0 {
			t.Errorf("%s: vmin %g not positive", name, res.VminV)
		}
	}
}

func TestRISCVInorderEndToEnd(t *testing.T) {
	p, err := platform.Build("riscv-inorder")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Domains()[0].Spec.ISA.String(); got != "riscv64" {
		t.Fatalf("riscv-inorder ISA = %q", got)
	}
	runPlatform(t, p)
}

func TestBigLittleEndToEnd(t *testing.T) {
	p, err := platform.Build("biglittle")
	if err != nil {
		t.Fatal(err)
	}
	doms := p.Domains()
	if len(doms) != 2 {
		t.Fatalf("biglittle has %d domains, want 2", len(doms))
	}
	// Both domains are fed from one shared rail: the spec carries a
	// single PDN referenced twice, and the build must preserve that.
	if doms[0].Spec.PDN != doms[1].Spec.PDN {
		t.Fatalf("big and little PDNs diverge:\n%+v\n%+v", doms[0].Spec.PDN, doms[1].Spec.PDN)
	}
	if doms[0].Spec.Core.OutOfOrder == doms[1].Spec.Core.OutOfOrder {
		t.Fatal("expected one OoO and one in-order domain")
	}
	runPlatform(t, p)
}

// TestResolveSpecFile: -platform accepts a spec file path, and a file
// containing a registry spec builds the same platform as the registry.
func TestResolveSpecFile(t *testing.T) {
	src, err := platform.Builtin().Source("riscv-inorder")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "board.json")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := platform.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	fromReg, err := platform.Resolve("riscv-inorder")
	if err != nil {
		t.Fatal(err)
	}
	fd, rd := fromFile.Domains(), fromReg.Domains()
	if len(fd) != len(rd) {
		t.Fatalf("domain counts diverge: %d vs %d", len(fd), len(rd))
	}
	for i := range fd {
		if fd[i].SpecContentHash() != rd[i].SpecContentHash() {
			t.Fatalf("domain %s: file and registry builds have different cache identities", fd[i].Spec.Name)
		}
	}
}
