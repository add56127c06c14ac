package vmin

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/slab"
	"repro/internal/workload"
)

func a72Domain(t *testing.T) *platform.Domain {
	t.Helper()
	p, err := platform.JunoR2()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func load(t *testing.T, d *platform.Domain, name string, cores int) platform.Load {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Build(d.Spec.Pool())
	if err != nil {
		t.Fatal(err)
	}
	return platform.Load{Seq: seq, ActiveCores: cores}
}

func TestFailureKindString(t *testing.T) {
	cases := map[FailureKind]string{
		Pass: "pass", SDC: "sdc", AppCrash: "app-crash", SystemCrash: "system-crash",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", k, got)
		}
	}
	if got := FailureKind(9).String(); got != "failure(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestVCritTracksClock(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 1)
	atMax := tst.vcritAt(d.ClockHz())
	atHalf := tst.vcritAt(600e6)
	if atHalf >= atMax {
		t.Fatalf("vcrit did not drop with clock: %v vs %v", atHalf, atMax)
	}
	want := d.Spec.Failure.VCritAtMax - d.Spec.Failure.SlackPerHz*(1.2e9-600e6)
	if math.Abs(atHalf-want) > 1e-12 {
		t.Fatalf("vcrit = %v, want %v", atHalf, want)
	}
}

// runAt executes the workload once at the given supply (and the maximum
// clock) on a one-rung ladder and classifies the outcome.
func runAt(t *testing.T, tst *Tester, l platform.Load, supply float64) (kind FailureKind, minV, droopV float64, err error) {
	t.Helper()
	clock := tst.Domain.ClockHz()
	ld, err := tst.Domain.LadderAt(l, tst.Dt, tst.N, clock, nil, &slab.Arena{})
	if err != nil {
		return 0, 0, 0, err
	}
	minV, droopV, err = ld.MinVDroop(supply)
	if err != nil {
		return 0, 0, 0, err
	}
	return exhaustiveClassify(tst, l, clock, supply, 0, minV), minV, droopV, nil
}

func TestRunAtClassifies(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 2)
	tst.ThresholdJitterV = 0 // deterministic classification
	l := load(t, d, "lbm", 2)

	pass, passMin, passDroop, err := runAt(t, tst, l, d.Spec.PDN.VNominal)
	if err != nil {
		t.Fatal(err)
	}
	if pass != Pass {
		t.Fatalf("nominal run outcome %v", pass)
	}
	if passDroop <= 0 {
		t.Fatal("no droop recorded")
	}
	// Far below vcrit: certain system crash.
	crash, crashMin, _, err := runAt(t, tst, l, tst.vcritAt(d.ClockHz()))
	if err != nil {
		t.Fatal(err)
	}
	if crash != SystemCrash {
		t.Fatalf("outcome at vcrit supply = %v, want system-crash", crash)
	}
	if crashMin >= passMin {
		t.Fatal("min die voltage did not drop with supply")
	}
}

func TestSearchFindsVmin(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 3)
	l := load(t, d, "lbm", 2)
	res, err := tst.Search(l)
	if err != nil {
		t.Fatal(err)
	}
	nominal := d.Spec.PDN.VNominal
	if res.VminV <= 0 || res.VminV >= nominal {
		t.Fatalf("Vmin = %v", res.VminV)
	}
	if math.Abs(res.MarginV-(nominal-res.VminV)) > 1e-12 {
		t.Fatalf("margin inconsistent: %v vs %v", res.MarginV, nominal-res.VminV)
	}
	if res.Outcome == Pass {
		t.Fatal("search ended on a pass")
	}
	if res.DroopNominalV <= 0 {
		t.Fatal("no nominal droop recorded")
	}
	// Vmin is on the board's step grid.
	step := d.Spec.VminStepVolts()
	steps := (nominal - res.VminV) / step
	if math.Abs(steps-math.Round(steps)) > 1e-9 {
		t.Fatalf("Vmin %v not on the %v step grid", res.VminV, step)
	}
	// Every step above Vmin passes with its rung solved, and the solved
	// rung at Vmin fails the way the search reported.
	ld, err := d.LadderAt(l, tst.Dt, tst.N, d.ClockHz(), nil, &slab.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	n := int(math.Round(steps))
	for i := 0; i <= n; i++ {
		supply := nominal - float64(i)*step
		minV, _, err := ld.MinVDroop(supply)
		if err != nil {
			t.Fatal(err)
		}
		kind := exhaustiveClassify(tst, l, d.ClockHz(), supply, 0, minV)
		want := Pass
		if i == n {
			want = res.Outcome
		}
		if kind != want {
			t.Fatalf("solved step %d at %vV: %v, want %v", i, supply, kind, want)
		}
	}
}

func TestVminOrderingAcrossWorkloads(t *testing.T) {
	// A high-droop workload must have a V_MIN at least as high as idle,
	// and its droop must be strictly larger.
	d := a72Domain(t)
	tst := NewTester(d, 4)
	tst.ThresholdJitterV = 0
	lbm, err := tst.Search(load(t, d, "lbm", 2))
	if err != nil {
		t.Fatal(err)
	}
	idle, err := tst.Search(load(t, d, "idle", 2))
	if err != nil {
		t.Fatal(err)
	}
	if lbm.DroopNominalV <= idle.DroopNominalV {
		t.Fatalf("lbm droop %v not above idle droop %v", lbm.DroopNominalV, idle.DroopNominalV)
	}
	if lbm.VminV < idle.VminV {
		t.Fatalf("lbm Vmin %v below idle Vmin %v", lbm.VminV, idle.VminV)
	}
}

func TestRepeat(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 5)
	l := load(t, d, "lbm", 2)
	worst, all, err := tst.Repeat(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("got %d repetitions", len(all))
	}
	for _, v := range all {
		if v > worst.VminV {
			t.Fatalf("Repeat worst %v below a sample %v", worst.VminV, v)
		}
	}
	if _, _, err := tst.Repeat(l, 0); err == nil {
		t.Fatal("0 repetitions accepted")
	}
}

func TestSearchRestoresDomainState(t *testing.T) {
	d := a72Domain(t)
	tst := NewTester(d, 6)
	if _, err := tst.Search(load(t, d, "idle", 1)); err != nil {
		t.Fatal(err)
	}
	if d.PoweredCores() != d.Spec.TotalCores {
		t.Fatalf("powered cores left at %d", d.PoweredCores())
	}
}
