package experiments

// The experiment suite runs in Quick mode here (smaller GA populations and
// repetition counts), so the assertions check the paper's *shape* claims —
// orderings, convergence targets, direction and rough magnitude of gaps —
// with tolerances wide enough for the reduced search effort. The full-scale
// numbers are regenerated by `cmd/repro` and the benchmark harness.

import (
	"strings"
	"sync"
	"testing"
)

var (
	ctxOnce sync.Once
	ctx     *Context
	results map[string]*Result
	ctxErr  error
)

// suite runs every experiment once and caches the results for all tests.
func suite(t *testing.T) map[string]*Result {
	t.Helper()
	ctxOnce.Do(func() {
		ctx, ctxErr = NewContext(Options{Quick: true, Seed: 7})
		if ctxErr != nil {
			return
		}
		results = make(map[string]*Result)
		for _, e := range All() {
			res, err := e.Run(ctx)
			if err != nil {
				ctxErr = err
				return
			}
			results[e.ID] = res
		}
	})
	if ctxErr != nil {
		t.Fatalf("experiment suite: %v", ctxErr)
	}
	return results
}

func val(t *testing.T, rs map[string]*Result, id, key string) float64 {
	t.Helper()
	r, ok := rs[id]
	if !ok {
		t.Fatalf("no result for %s", id)
	}
	v, ok := r.Values[key]
	if !ok {
		t.Fatalf("%s has no value %q (have %v)", id, key, r.Values)
	}
	return v
}

func TestInventory(t *testing.T) {
	if n := len(All()); n != 19 {
		t.Fatalf("%d experiments, want 19 (17 figures + 2 tables)", n)
	}
	if _, err := ByID("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment found")
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestAllProduceReports(t *testing.T) {
	rs := suite(t)
	for id, r := range rs {
		if r.ID != id {
			t.Errorf("result ID %q under key %q", r.ID, id)
		}
		if strings.TrimSpace(r.Text) == "" {
			t.Errorf("%s has empty report", id)
		}
		if len(r.Values) == 0 {
			t.Errorf("%s has no headline values", id)
		}
	}
}

func TestFig1bImpedanceHierarchy(t *testing.T) {
	rs := suite(t)
	if n := val(t, rs, "fig1b", "num_peaks"); n < 3 {
		t.Errorf("only %v resonance peaks", n)
	}
	f := val(t, rs, "fig1b", "first_order_hz")
	if f < 50e6 || f > 200e6 {
		t.Errorf("strongest peak at %v Hz, want in the 50-200 MHz first-order range", f)
	}
}

func TestFig1cStepResponseRings(t *testing.T) {
	rs := suite(t)
	if d := val(t, rs, "fig1c", "max_droop_mv"); d <= 0 {
		t.Errorf("no step droop: %v", d)
	}
	ring := val(t, rs, "fig1c", "ring_hz")
	if ring < 50e6 || ring > 90e6 {
		t.Errorf("step rings at %v Hz, want near the 67 MHz first-order tank", ring)
	}
}

func TestFig2ResonantExcitationWins(t *testing.T) {
	rs := suite(t)
	if g := val(t, rs, "fig2", "gain"); g < 1.5 {
		t.Errorf("resonant/off-resonant swing gain %v, want > 1.5", g)
	}
}

func TestFig4VirusNoisiest(t *testing.T) {
	rs := suite(t)
	idle := val(t, rs, "fig4", "idle_ptp_mv")
	lbm := val(t, rs, "fig4", "lbm_ptp_mv")
	virus := val(t, rs, "fig4", "virus_ptp_mv")
	if !(idle < lbm && lbm < virus) {
		t.Errorf("Fig4 ordering broken: idle %v, lbm %v, virus %v", idle, lbm, virus)
	}
}

func TestFig6AntennaSelfResonance(t *testing.T) {
	rs := suite(t)
	f := val(t, rs, "fig6", "self_resonance_hz")
	if f < 2.8e9 || f > 3.1e9 {
		t.Errorf("self-resonance at %v, want ~2.95 GHz", f)
	}
	if dip := val(t, rs, "fig6", "s11_at_dip"); dip > 0.5 {
		t.Errorf("S11 dip %v not deep", dip)
	}
	if band := val(t, rs, "fig6", "s11_in_band"); band < 0.9 {
		t.Errorf("in-band S11 %v, want near-total mismatch", band)
	}
}

func TestFig7GAConverges(t *testing.T) {
	rs := suite(t)
	if g := val(t, rs, "fig7", "amplitude_gain_db"); g <= 0 {
		t.Errorf("EM amplitude did not improve: %v dB", g)
	}
	dom := val(t, rs, "fig7", "final_dominant_mhz")
	if dom < 55 || dom > 80 {
		t.Errorf("A72 GA dominant %v MHz, want near 67", dom)
	}
	// Droop rises with EM amplitude (the paper's central correlation).
	if corr := val(t, rs, "fig7", "em_droop_corr"); corr < 0.5 {
		t.Errorf("EM-droop correlation %v, want strongly positive", corr)
	}
}

func TestFig8SCLResonances(t *testing.T) {
	rs := suite(t)
	both := val(t, rs, "fig8", "resonance_c0c1_hz")
	one := val(t, rs, "fig8", "resonance_c0_hz")
	if both < 60e6 || both > 74e6 {
		t.Errorf("C0C1 SCL resonance %v, want 66-72 MHz region", both)
	}
	if one < 78e6 || one > 90e6 {
		t.Errorf("C0 SCL resonance %v, want 80-86 MHz region", one)
	}
	if one <= both {
		t.Error("power-gating did not raise SCL resonance")
	}
}

func TestFig9InstrumentsAgree(t *testing.T) {
	rs := suite(t)
	if d := val(t, rs, "fig9", "agreement_hz"); d > 2e6 {
		t.Errorf("analyzer and OC-DSO FFT disagree by %v Hz", d)
	}
}

func TestFig10VirusesTopTheChart(t *testing.T) {
	rs := suite(t)
	em := val(t, rs, "fig10", "emVirus_vmin_v")
	dso := val(t, rs, "fig10", "dsoVirus_vmin_v")
	lbm := val(t, rs, "fig10", "lbm_vmin_v")
	if em < lbm+0.015 || dso < lbm+0.015 {
		t.Errorf("viruses do not clearly beat lbm: em %v dso %v lbm %v", em, dso, lbm)
	}
	if gap := val(t, rs, "fig10", "em_virus_vs_lbm_droop_mv"); gap < 25 {
		t.Errorf("virus droop only %v mV above lbm, paper reports > 25 mV", gap)
	}
	// lbm is the noisiest SPEC proxy.
	for _, bench := range []string{"mcf", "gcc", "bzip2", "hmmer", "povray", "soplex", "milc", "namd", "h264ref"} {
		if v := val(t, rs, "fig10", bench+"_vmin_v"); v > lbm {
			t.Errorf("%s Vmin %v above lbm %v", bench, v, lbm)
		}
	}
	margin := val(t, rs, "fig10", "margin_mv")
	if margin < 100 || margin > 220 {
		t.Errorf("A72 margin %v mV, paper reports ~150", margin)
	}
}

func TestFig11FastSweep(t *testing.T) {
	rs := suite(t)
	both := val(t, rs, "fig11", "resonance_c0c1_hz")
	one := val(t, rs, "fig11", "resonance_c0_hz")
	if both < 62e6 || both > 76e6 {
		t.Errorf("fast sweep C0C1 %v, want ~70 MHz", both)
	}
	if one < 80e6 || one > 95e6 {
		t.Errorf("fast sweep C0 %v, want ~85 MHz", one)
	}
}

func TestFig12A53GA(t *testing.T) {
	rs := suite(t)
	dom := val(t, rs, "fig12", "final_dominant_mhz")
	if dom < 68 || dom > 85 {
		t.Errorf("A53 GA dominant %v MHz, want near 75", dom)
	}
	if g := val(t, rs, "fig12", "amplitude_gain_db"); g <= 0 {
		t.Errorf("A53 GA did not improve: %v dB", g)
	}
}

func TestFig13PowerGatingShifts(t *testing.T) {
	rs := suite(t)
	f4 := val(t, rs, "fig13", "resonance_4cores_hz")
	f1 := val(t, rs, "fig13", "resonance_1cores_hz")
	if f1 < f4+8e6 {
		t.Errorf("gating 3 of 4 cores shifted resonance only %v -> %v", f4, f1)
	}
	if f1 < 88e6 || f1 > 105e6 {
		t.Errorf("single-core resonance %v, want ~97 MHz", f1)
	}
}

func TestFig14A53VminWithoutVoltageVisibility(t *testing.T) {
	rs := suite(t)
	if gap := val(t, rs, "fig14", "virus_above_benchmarks_mv"); gap < 20 {
		t.Errorf("A53 EM virus only %v mV above benchmarks, paper reports ~50", gap)
	}
	margin := val(t, rs, "fig14", "margin_mv")
	if margin < 100 || margin > 220 {
		t.Errorf("A53 margin %v mV, paper reports ~150", margin)
	}
}

func TestFig15BothSignaturesVisible(t *testing.T) {
	rs := suite(t)
	p72 := val(t, rs, "fig15", "a72_spike_dbm")
	p53 := val(t, rs, "fig15", "a53_spike_dbm")
	if p72 < -60 || p53 < -60 {
		t.Errorf("domain signatures not visible: a72 %v dBm, a53 %v dBm", p72, p53)
	}
	f72 := val(t, rs, "fig15", "a72_spike_hz")
	f53 := val(t, rs, "fig15", "a53_spike_hz")
	if f53 <= f72 {
		t.Errorf("expected distinct spikes with a53 above a72: %v vs %v", f53, f72)
	}
}

func TestFig16AMDSweep(t *testing.T) {
	rs := suite(t)
	f := val(t, rs, "fig16", "resonance_hz")
	if f < 70e6 || f > 88e6 {
		t.Errorf("AMD fast sweep %v, want ~78 MHz", f)
	}
}

func TestFig17AMDGA(t *testing.T) {
	rs := suite(t)
	dom := val(t, rs, "fig17", "final_dominant_mhz")
	if dom < 60 || dom > 90 {
		t.Errorf("AMD GA dominant %v MHz, want near 77", dom)
	}
}

func TestFig18VirusesBeatStabilityTests(t *testing.T) {
	rs := suite(t)
	em := val(t, rs, "fig18", "emVirus_vmin_v")
	prime := val(t, rs, "fig18", "prime95_vmin_v")
	stab := val(t, rs, "fig18", "amd-stability_vmin_v")
	if em <= prime || em <= stab {
		t.Errorf("EM virus %v does not beat prime95 %v / amd-stability %v", em, prime, stab)
	}
	if gap := val(t, rs, "fig18", "virus_vs_prime95_mv"); gap < 25 {
		t.Errorf("virus only %v mV above prime95", gap)
	}
	two := val(t, rs, "fig18", "emVirus2_vmin_v")
	if two < stab-0.001 {
		t.Errorf("2-core EM virus %v below 4-core stability test %v (paper: at least as severe)", two, stab)
	}
}

func TestTab1PlatformInventory(t *testing.T) {
	rs := suite(t)
	if v := val(t, rs, "tab1", "cortex-a72_cores"); v != 2 {
		t.Errorf("a72 cores %v", v)
	}
	if v := val(t, rs, "tab1", "cortex-a53_cores"); v != 4 {
		t.Errorf("a53 cores %v", v)
	}
	if v := val(t, rs, "tab1", "athlon-ii-x4_max_hz"); v != 3.1e9 {
		t.Errorf("athlon clock %v", v)
	}
}

func TestTab2VirusProperties(t *testing.T) {
	rs := suite(t)
	// Every virus's dominant frequency lies in the first-order band.
	for _, name := range VirusNames() {
		dom := val(t, rs, "tab2", name+"_dominant_hz")
		if dom < 50e6 || dom > 200e6 {
			t.Errorf("%s dominant %v outside 50-200 MHz", name, dom)
		}
		if m := val(t, rs, "tab2", name+"_margin_mv"); m <= 0 {
			t.Errorf("%s margin %v", name, m)
		}
		ipc := val(t, rs, "tab2", name+"_ipc")
		if ipc <= 0 || ipc > 3 {
			t.Errorf("%s IPC %v", name, ipc)
		}
	}
	// Paper Section 8.2: the slower ARM parts embed faster periodic events
	// inside a longer loop — dominant >= loop frequency.
	for _, name := range []string{VirusA72EM, VirusA53EM} {
		dom := val(t, rs, "tab2", name+"_dominant_hz")
		loop := val(t, rs, "tab2", name+"_loop_hz")
		if dom < loop-1e6 {
			t.Errorf("%s dominant %v below loop frequency %v", name, dom, loop)
		}
	}
}

func TestVirusCacheAndErrors(t *testing.T) {
	suite(t)
	a, err := ctx.Virus(VirusA72EM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Virus(VirusA72EM)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("virus not cached")
	}
	if _, err := ctx.Virus("nope"); err == nil {
		t.Error("unknown virus accepted")
	}
	if _, _, err := ctx.VirusDomain("nope"); err == nil {
		t.Error("unknown virus domain accepted")
	}
}
