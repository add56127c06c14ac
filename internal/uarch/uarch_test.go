package uarch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// mk builds an instruction instance from a mnemonic with explicit operands.
func mk(t *testing.T, p *isa.Pool, mnemonic string, dest int, srcs ...int) isa.Inst {
	t.Helper()
	d, ok := p.DefByMnemonic(mnemonic)
	if !ok {
		t.Fatalf("no mnemonic %q", mnemonic)
	}
	in := isa.Inst{Def: d, Dest: dest}
	for i, s := range srcs {
		in.Srcs[i] = s
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
	bad := CortexA72()
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = CortexA72()
	bad.WindowSize = 1
	if err := bad.Validate(); err == nil {
		t.Error("window < width accepted")
	}
	bad = CortexA72()
	bad.ChargeScale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero charge scale accepted")
	}
	bad = CortexA72()
	bad.BaseCharge = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative base charge accepted")
	}
	bad = CortexA72()
	bad.Units[isa.UnitFP] = 0
	if err := bad.Validate(); err == nil {
		t.Error("missing FP unit accepted")
	}
}

func TestRunErrors(t *testing.T) {
	p := isa.ARM64Pool()
	seq := []isa.Inst{mk(t, p, "add", 1, 2, 3)}
	if _, err := Run(CortexA72(), nil, 100); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := Run(CortexA72(), seq, 0); err == nil {
		t.Error("zero steady cycles accepted")
	}
	bad := CortexA72()
	bad.IssueWidth = 0
	if _, err := Run(bad, seq, 100); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// add x1 <- x1: a serial chain, one per cycle on any width.
	p := isa.ARM64Pool()
	seq := []isa.Inst{
		mk(t, p, "add", 1, 1, 1),
		mk(t, p, "add", 1, 1, 1),
		mk(t, p, "add", 1, 1, 1),
		mk(t, p, "add", 1, 1, 1),
	}
	for _, cfg := range []Config{CortexA53(), CortexA72()} {
		res, err := Run(cfg, seq, 2000)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.IPC < 0.85 || res.IPC > 1.15 {
			t.Errorf("%s: dependent-chain IPC = %v, want ~1", cfg.Name, res.IPC)
		}
	}
}

func TestIndependentAddsDualIssueInOrder(t *testing.T) {
	// Independent adds on distinct registers: the A53 model has 2 ALUs and
	// width 2, so IPC should approach 2.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
	}
	res, err := Run(CortexA53(), seq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC < 1.8 {
		t.Errorf("independent adds IPC = %v, want ~2", res.IPC)
	}
}

func TestMixedIssueReachesWidth3OutOfOrder(t *testing.T) {
	// A mix across units lets the A72 model sustain its full width.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 6; i++ {
		seq = append(seq,
			mk(t, p, "add", i+1, 0, 0),
			mk(t, p, "fadd", i+1, 0, 0),
			mk(t, p, "vadd", i+8, 0, 0),
		)
	}
	res, err := Run(CortexA72(), seq, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC < 2.7 {
		t.Errorf("mixed IPC = %v, want ~3", res.IPC)
	}
}

func TestUnpipelinedDivideBlocks(t *testing.T) {
	// Dependent sdivs occupy the single muldiv unit for Block cycles each.
	p := isa.ARM64Pool()
	d, _ := p.DefByMnemonic("sdiv")
	seq := []isa.Inst{
		mk(t, p, "sdiv", 1, 1, 1),
		mk(t, p, "sdiv", 1, 1, 1),
	}
	res, err := Run(CortexA72(), seq, 3000)
	if err != nil {
		t.Fatal(err)
	}
	wantCPI := float64(d.Latency)
	gotCPI := 1 / res.IPC
	if math.Abs(gotCPI-wantCPI) > 1.5 {
		t.Errorf("divide CPI = %v, want ~%v", gotCPI, wantCPI)
	}
}

func TestOutOfOrderHidesLatency(t *testing.T) {
	// A long divide followed by independent adds: the OoO core keeps
	// issuing adds under the divide, the in-order core stalls.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	seq = append(seq, mk(t, p, "sdiv", 15, 15, 15))
	for i := 0; i < 12; i++ {
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
	}
	ooo, err := Run(CortexA72(), seq, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := Run(CortexA53(), seq, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if ooo.IPC <= ino.IPC*1.2 {
		t.Errorf("OoO IPC %v not clearly above in-order IPC %v", ooo.IPC, ino.IPC)
	}
}

func TestChargeTraceHasHighAndLowPhases(t *testing.T) {
	// The paper's probe loop: a burst of adds then a divide. The steady
	// charge trace must show distinct high- and low-current phases.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
	}
	seq = append(seq, mk(t, p, "sdiv", 15, 15, 15))
	res, err := Run(CortexA53(), seq, 4000)
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
		t.Errorf("charge swing too small: min %v max %v", min, max)
	}
	if res.LoopCycles <= 0 {
		t.Error("LoopCycles not positive")
	}
}

func TestSteadyStateIsPeriodic(t *testing.T) {
	// After warmup the machine state repeats every iteration, so the
	// steady charge trace must be periodic with the loop period.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 5; i++ {
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
		seq = append(seq, mk(t, p, "fmul", i+1, i, i))
	}
	seq = append(seq, mk(t, p, "sdiv", 15, 15, 15))
	res, err := Run(CortexA53(), seq, 5000)
	if err != nil {
		t.Fatal(err)
	}
	period := int(math.Round(res.LoopCycles))
	if period <= 0 {
		t.Fatalf("bad period %v", res.LoopCycles)
	}
	steady := res.SteadyCharge()
	if len(steady) < 3*period {
		t.Fatalf("steady trace too short: %d", len(steady))
	}
	for i := period; i < 2*period; i++ {
		if math.Abs(steady[i]-steady[i+period]) > 1e-15 {
			t.Fatalf("trace not periodic at %d: %v vs %v", i, steady[i], steady[i+period])
		}
	}
}

// Property: the simulator is deterministic — identical runs give identical
// traces and metrics.
func TestDeterminismProperty(t *testing.T) {
	pools := map[bool]*isa.Pool{false: isa.ARM64Pool(), true: isa.X86Pool()}
	cfgs := map[bool]Config{false: CortexA72(), true: AthlonII()}
	prop := func(seed int64, x86 bool) bool {
		p := pools[x86]
		cfg := cfgs[x86]
		rng := rand.New(rand.NewSource(seed))
		seq := p.RandomSequence(rng, 10+rng.Intn(50))
		a, err := Run(cfg, seq, 1500)
		if err != nil {
			return false
		}
		b, err := Run(cfg, seq, 1500)
		if err != nil {
			return false
		}
		if a.IPC != b.IPC || a.LoopCycles != b.LoopCycles || len(a.Charge) != len(b.Charge) {
			return false
		}
		for i := range a.Charge {
			if a.Charge[i] != b.Charge[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: charge is always positive and IPC within machine width.
func TestChargeAndIPCBoundsProperty(t *testing.T) {
	p := isa.ARM64Pool()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := p.RandomSequence(rng, 5+rng.Intn(60))
		for _, cfg := range []Config{CortexA72(), CortexA53()} {
			res, err := Run(cfg, seq, 1200)
			if err != nil {
				return false
			}
			if res.IPC <= 0 || res.IPC > float64(cfg.IssueWidth)+1e-9 {
				return false
			}
			for _, q := range res.Charge {
				if q <= 0 {
					return false
				}
			}
			if res.Warmup <= 0 || res.Warmup >= len(res.Charge) {
				return false
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(prop, qc); err != nil {
		t.Fatal(err)
	}
}

func TestStoresAndBranchesExecute(t *testing.T) {
	p := isa.ARM64Pool()
	str, _ := p.DefByMnemonic("str")
	ldr, _ := p.DefByMnemonic("ldr")
	b, _ := p.DefByMnemonic("b")
	seq := []isa.Inst{
		{Def: ldr, Dest: 1, Addr: 0},
		{Def: str, Srcs: [2]int{1}, Addr: 1},
		{Def: b},
		mk(t, p, "add", 2, 1, 1),
	}
	res, err := Run(CortexA53(), seq, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("IPC not positive")
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	// With a window of 4 and long-latency producers, a tiny window
	// throttles an out-of-order core down toward in-order behaviour.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, mk(t, p, "fmul", i+1, 0, 0))
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
	}
	wide := CortexA72()
	narrow := CortexA72()
	narrow.WindowSize = 4
	rWide, err := Run(wide, seq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rNarrow, err := Run(narrow, seq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rNarrow.IPC >= rWide.IPC {
		t.Fatalf("narrow window IPC %v not below wide %v", rNarrow.IPC, rWide.IPC)
	}
}

func TestGPUConfigValid(t *testing.T) {
	// The GPU SM lives in internal/platform but is a uarch.Config; make
	// sure an SM-like config (wide SIMD, in-order) executes sanely here.
	cfg := CortexA53()
	cfg.Units[isa.UnitSIMD] = 2
	cfg.WindowSize = 12 // as in the GPU SM config; 8 starves the 4-cycle vmuls
	cfg.Name = "sm-like"
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, mk(t, p, "vmul", i+1, 0, 0))
	}
	res, err := Run(cfg, seq, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// Two SIMD units and width 2: independent vmuls should dual-issue.
	if res.IPC < 1.8 {
		t.Fatalf("SIMD dual-issue IPC %v", res.IPC)
	}
}

func TestLoopCyclesStableAcrossWindowLengths(t *testing.T) {
	// LoopCycles must not depend on how long we simulate.
	p := isa.ARM64Pool()
	var seq []isa.Inst
	for i := 0; i < 10; i++ {
		seq = append(seq, mk(t, p, "add", i+1, 0, 0))
	}
	seq = append(seq, mk(t, p, "sdiv", 15, 15, 15))
	a, err := Run(CortexA53(), seq, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(CortexA53(), seq, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.LoopCycles-b.LoopCycles) > 0.25 {
		t.Fatalf("LoopCycles drifted with simulation length: %v vs %v", a.LoopCycles, b.LoopCycles)
	}
}

// TestSteadyExtrapolationBitIdentical pins that fast-forwarding an exactly
// periodic steady state replicates what per-cycle simulation would have
// produced, bit for bit — across cores, ISAs, sequence lengths and steady
// windows — and that the fast path actually engages on GA-shaped runs.
func TestSteadyExtrapolationBitIdentical(t *testing.T) {
	pools := map[string]*isa.Pool{"arm64": isa.ARM64Pool(), "x86": isa.X86Pool()}
	fired := false
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		for pname, pool := range pools {
			rng := rand.New(rand.NewSource(41))
			for _, seqLen := range []int{2, 5, 17, 50} {
				for _, steady := range []int{120, 700, 2500} {
					label := fmt.Sprintf("%s/%s len=%d steady=%d", cfg.Name, pname, seqLen, steady)
					seq := pool.RandomSequence(rng, seqLen)

					want := exactRun(t, cfg, seq, steady, false)
					before := ExtrapolatedCycles()
					got := exactRun(t, cfg, seq, steady, true)
					if ExtrapolatedCycles() > before {
						fired = true
					}
					requireSameResult(t, label, got, want)
				}
			}
		}
	}
	if !fired {
		t.Fatal("steady-state extrapolation never engaged")
	}
}
