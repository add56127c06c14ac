// Package pdn models the die-package-PCB power-delivery network of Figure 1
// in the paper: a chain of LC tanks whose highest-frequency ("first-order")
// resonance is formed by the on-die capacitance and the package inductance.
//
// The model is parameterized per platform and per number of powered cores:
// power-gating a core removes its contribution to the die capacitance, which
// raises the first-order resonance frequency (Section 6 of the paper).
//
// Two analysis paths are provided on top of the internal/circuit solver:
//
//   - Transient: exact trapezoidal integration under an arbitrary load
//     current waveform (used by the simulated OC-DSO).
//   - TransferSet: precomputed complex transfer functions H_V(f) and H_I(f)
//     (die voltage and package-inductor current per unit load current) at
//     FFT bin frequencies. Because the network is linear, the periodic
//     steady state under any load is obtained by multiplying the load's
//     spectrum by these transfers — orders of magnitude faster than a
//     transient and exact in steady state. The GA fitness path uses this.
package pdn

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/dsp"
)

// Params describes a PDN electrically. All values are SI units.
type Params struct {
	Name     string  `json:"name"`      // human-readable PDN name, e.g. "juno-a72"
	VNominal float64 `json:"v_nominal"` // nominal supply voltage at the regulator (volts)

	// Die: switching load plus per-core decoupling capacitance in series
	// with the power-grid resistance.
	CDieCore   float64 `json:"c_die_core"`   // on-die capacitance contributed by each powered core
	CDieUncore float64 `json:"c_die_uncore"` // always-on die capacitance (uncore, L2, grid)
	RDie       float64 `json:"r_die"`        // lumped on-die grid resistance in series with CDie

	// Package: trace inductance/resistance feeding the die (the 1st-order
	// tank inductance) plus package decap with its parasitics.
	LPkg      float64 `json:"l_pkg"`
	RPkgTrace float64 `json:"r_pkg_trace"`
	CPkg      float64 `json:"c_pkg"`
	ESRPkg    float64 `json:"esr_pkg"`
	ESLPkg    float64 `json:"esl_pkg"`

	// PCB: trace inductance/resistance feeding the package plus bulk decap.
	LPcb      float64 `json:"l_pcb"`
	RPcbTrace float64 `json:"r_pcb_trace"`
	CPcb      float64 `json:"c_pcb"`
	ESRPcb    float64 `json:"esr_pcb"`
	ESLPcb    float64 `json:"esl_pcb"`

	// Regulator output impedance.
	LVrm float64 `json:"l_vrm"`
	RVrm float64 `json:"r_vrm"`
}

// Validate reports the first problem with the parameter set, or nil.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"VNominal", p.VNominal},
		{"CDieCore", p.CDieCore},
		{"CDieUncore", p.CDieUncore},
		{"RDie", p.RDie},
		{"LPkg", p.LPkg},
		{"RPkgTrace", p.RPkgTrace},
		{"CPkg", p.CPkg},
		{"ESRPkg", p.ESRPkg},
		{"ESLPkg", p.ESLPkg},
		{"LPcb", p.LPcb},
		{"RPcbTrace", p.RPcbTrace},
		{"CPcb", p.CPcb},
		{"ESRPcb", p.ESRPcb},
		{"ESLPcb", p.ESLPcb},
		{"LVrm", p.LVrm},
		{"RVrm", p.RVrm},
	}
	for _, c := range checks {
		if c.v <= 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("pdn: parameter %s = %v is not a positive finite value", c.name, c.v)
		}
	}
	return nil
}

// Node and element names used in the generated netlist.
const (
	NodeDie = "die"
	NodePkg = "pkg"
	NodePcb = "pcb"
	NodeVrm = "vrm"

	ElemLoad = "iload" // the CPU current source, die -> ground
	ElemLPkg = "lpkg"  // package trace inductor; its current is I_DIE
	ElemVrm  = "vs"    // supply source
)

// Model is a PDN instance for a specific powered-core count.
type Model struct {
	Params Params
	Cores  int // number of powered cores contributing CDieCore each

	load circuit.Waveform // current program load; swapped per analysis
}

// NewModel validates p and returns a model with cores powered cores.
func NewModel(p Params, cores int) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("pdn: cores = %d, need at least 1", cores)
	}
	return &Model{Params: p, Cores: cores}, nil
}

// CDie returns the total die capacitance for the model's powered-core count.
func (m *Model) CDie() float64 {
	return float64(m.Cores)*m.Params.CDieCore + m.Params.CDieUncore
}

// FirstOrderResonance returns the analytic estimate of the first-order
// resonance frequency, 1/(2π·sqrt(LPkg·CDie)). The true impedance peak is
// slightly shifted by damping; use ResonancePeak for the simulated value.
func (m *Model) FirstOrderResonance() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(m.Params.LPkg*m.CDie()))
}

// build constructs the netlist with the given load waveform.
func (m *Model) build(load circuit.Waveform) *circuit.Circuit {
	p := m.Params
	c := circuit.New()
	c.V(ElemVrm, NodeVrm, circuit.Ground, p.VNominal)
	// Regulator output impedance to the PCB plane.
	c.R("rvrm", NodeVrm, "vrm1", p.RVrm)
	c.L("lvrm", "vrm1", NodePcb, p.LVrm)
	// Bulk decap on the PCB.
	c.L("eslpcb", NodePcb, "pcbx", p.ESLPcb)
	c.R("esrpcb", "pcbx", "pcby", p.ESRPcb)
	c.C("cpcb", "pcby", circuit.Ground, p.CPcb)
	// PCB traces to the package.
	c.R("rpcb", NodePcb, "pcb1", p.RPcbTrace)
	c.L("lpcb", "pcb1", NodePkg, p.LPcb)
	// Package decap.
	c.L("eslpkg", NodePkg, "pkgx", p.ESLPkg)
	c.R("esrpkg", "pkgx", "pkgy", p.ESRPkg)
	c.C("cpkg", "pkgy", circuit.Ground, p.CPkg)
	// Package traces to the die: the first-order tank inductance.
	c.R("rpkg", NodePkg, "pkg1", p.RPkgTrace)
	c.L(ElemLPkg, "pkg1", NodeDie, p.LPkg)
	// Die capacitance behind the grid resistance.
	c.R("rdie", NodeDie, "diex", p.RDie)
	c.C("cdie", "diex", circuit.Ground, m.CDie())
	// The program's current demand.
	c.I(ElemLoad, NodeDie, circuit.Ground, load)
	return c
}

// loadSolver is an AC solver of the quiet netlist driven by a unit load
// current, with the die node and the package-inductor branch resolved
// once. Every frequency-domain analysis reuses one across its frequencies.
type loadSolver struct {
	s        *circuit.ACSolver
	die, ipk circuit.Probe
}

// newLoadSolver builds the quiet netlist and its solver.
func (m *Model) newLoadSolver() (*loadSolver, error) {
	s, err := m.build(circuit.DC(0)).NewACSolver(circuit.ACStimulus{ElemLoad: 1})
	if err != nil {
		return nil, err
	}
	die, err := s.VoltageProbe(NodeDie)
	if err != nil {
		return nil, err
	}
	ipk, err := s.CurrentProbe(ElemLPkg)
	if err != nil {
		return nil, err
	}
	return &loadSolver{s: s, die: die, ipk: ipk}, nil
}

// transfer returns the die-voltage and package-inductor-current phasors
// per unit load current at f.
func (ls *loadSolver) transfer(f float64) (hv, hi complex128, err error) {
	res, err := ls.s.Solve(f)
	if err != nil {
		return 0, 0, err
	}
	return res.At(ls.die), res.At(ls.ipk), nil
}

// impedance returns the driving-point impedance seen by the die at f. The
// load pulls current out of the die node, so it is -V/I with I = 1.
func (ls *loadSolver) impedance(f float64) (complex128, error) {
	hv, _, err := ls.transfer(f)
	return -hv, err
}

// Impedance returns the driving-point impedance seen by the die at f.
func (m *Model) Impedance(f float64) (complex128, error) {
	s, err := m.newLoadSolver()
	if err != nil {
		return 0, err
	}
	return s.impedance(f)
}

// ImpedancePoint pairs a frequency with an impedance magnitude.
type ImpedancePoint struct {
	Freq float64 // Hz
	Z    float64 // ohms, |Z(f)|
}

// ImpedanceProfile samples |Z(f)| at points log-spaced frequencies between
// fLo and fHi inclusive.
func (m *Model) ImpedanceProfile(fLo, fHi float64, points int) ([]ImpedancePoint, error) {
	s, err := m.newLoadSolver()
	if err != nil {
		return nil, err
	}
	return s.profile(fLo, fHi, points)
}

// profile is ImpedanceProfile on an existing solver.
func (ls *loadSolver) profile(fLo, fHi float64, points int) ([]ImpedancePoint, error) {
	if fLo <= 0 || fHi <= fLo || points < 2 {
		return nil, fmt.Errorf("pdn: invalid impedance sweep [%v, %v] x%d", fLo, fHi, points)
	}
	out := make([]ImpedancePoint, points)
	ratio := math.Pow(fHi/fLo, 1/float64(points-1))
	f := fLo
	for i := 0; i < points; i++ {
		z, err := ls.impedance(f)
		if err != nil {
			return nil, err
		}
		out[i] = ImpedancePoint{Freq: f, Z: cmplx.Abs(z)}
		f *= ratio
	}
	return out, nil
}

// ResonancePeak numerically locates the impedance maximum within [fLo, fHi]
// by a coarse log sweep followed by golden-section refinement, both on one
// solver.
func (m *Model) ResonancePeak(fLo, fHi float64) (freq, zmag float64, err error) {
	s, err := m.newLoadSolver()
	if err != nil {
		return 0, 0, err
	}
	prof, err := s.profile(fLo, fHi, 200)
	if err != nil {
		return 0, 0, err
	}
	best := 0
	for i, p := range prof {
		if p.Z > prof[best].Z {
			best = i
		}
	}
	lo, hi := fLo, fHi
	if best > 0 {
		lo = prof[best-1].Freq
	}
	if best < len(prof)-1 {
		hi = prof[best+1].Freq
	}
	zAt := func(f float64) float64 {
		z, zerr := s.impedance(f)
		if zerr != nil {
			err = zerr
			return 0
		}
		return cmplx.Abs(z)
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	c1 := b - phi*(b-a)
	c2 := a + phi*(b-a)
	f1, f2 := zAt(c1), zAt(c2)
	for i := 0; i < 60 && err == nil; i++ {
		if f1 < f2 {
			a, c1, f1 = c1, c2, f2
			c2 = a + phi*(b-a)
			f2 = zAt(c2)
		} else {
			b, c2, f2 = c2, c1, f1
			c1 = b - phi*(b-a)
			f1 = zAt(c1)
		}
	}
	if err != nil {
		return 0, 0, err
	}
	mid := (a + b) / 2
	return mid, zAt(mid), err
}

// ResonancePeaks returns all local impedance maxima between fLo and fHi,
// strongest first, using a dense log sweep.
func (m *Model) ResonancePeaks(fLo, fHi float64, points int) ([]dsp.Peak, error) {
	prof, err := m.ImpedanceProfile(fLo, fHi, points)
	if err != nil {
		return nil, err
	}
	freqs := make([]float64, len(prof))
	zs := make([]float64, len(prof))
	for i, p := range prof {
		freqs[i], zs[i] = p.Freq, p.Z
	}
	peaks := dsp.FindPeaks(freqs, zs, 0)
	// Drop endpoint artifacts: a peak at the sweep edge is not a resonance.
	out := peaks[:0]
	for _, p := range peaks {
		if p.Bin == 0 || p.Bin == len(zs)-1 {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}
