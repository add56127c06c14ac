package circuit

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ACResult holds the complex phasor solution at one frequency.
type ACResult struct {
	circuit *Circuit
	Freq    float64
	x       []complex128
}

// Voltage returns the complex node-voltage phasor of the named node.
func (r *ACResult) Voltage(node string) (complex128, error) {
	idx, err := r.circuit.nodeIndex(node)
	if err != nil {
		return 0, err
	}
	return r.At(Probe{idx}), nil
}

// Current returns the complex branch-current phasor of the named inductor
// or voltage source.
func (r *ACResult) Current(name string) (complex128, error) {
	idx, err := r.circuit.branchIndex(name)
	if err != nil {
		return 0, err
	}
	return r.At(Probe{idx}), nil
}

// Probe is one unknown of an AC solution, a node voltage or a branch
// current, resolved by name once (ACSolver.VoltageProbe, CurrentProbe) so
// a sweep reads it at every frequency without a lookup.
type Probe struct{ idx int } // -1 for the ground node

// At returns the probed phasor.
func (r *ACResult) At(p Probe) complex128 {
	if p.idx < 0 {
		return 0
	}
	return r.x[p.idx]
}

// branchIndex returns the branch-current unknown of the named inductor or
// voltage source.
func (c *Circuit) branchIndex(name string) (int, error) {
	for _, l := range c.ls {
		if l.name == name {
			return l.branch, nil
		}
	}
	for _, v := range c.vs {
		if v.name == name {
			return v.branch, nil
		}
	}
	return 0, fmt.Errorf("circuit: no inductor or vsource named %q", name)
}

// ACStimulus gives the small-signal amplitude of each stimulated source by
// element name. Sources not listed are quiet (DC supplies become AC shorts,
// current sources open), which is the standard small-signal treatment.
type ACStimulus map[string]complex128

// ACSolver solves one circuit's small-signal system at frequency after
// frequency with one MNA buffer and one right-hand side. NewACSolver
// compiles the netlist once: its stamps become a flat list of (index, re,
// coef) entries, each adding complex(re, ω·coef) to the matrix, in the
// fixed stamping order (resistors, capacitors, inductors, then voltage
// sources, each kind in the order added); the stamp positions become the
// linalg.Pattern the elimination works on; and the stimulus becomes a
// right-hand side that is the same at every frequency. A sweep therefore
// allocates nothing per frequency and looks nothing up, and every point
// is bit for bit a fresh one-frequency solve.
//
// The solver snapshots the netlist: adding elements to the circuit after
// NewACSolver is a bug. An ACSolver is not safe for concurrent use.
type ACSolver struct {
	c      *Circuit
	m      *linalg.CMatrix
	pat    *linalg.Pattern
	stamps []acStamp
	rhs    []complex128 // the stimulus, copied into res.x per solve
	res    ACResult     // x is the right-hand side, solved in place
}

// acStamp is one matrix contribution: entry idx (row-major) gains
// complex(re, ω·coef). The static stamps (conductances, the ±1 incidences)
// are real-only and the ω stamps (susceptances, −ωL) imaginary-only, so
// each entry's real and imaginary parts sum the same values in the same
// order as stamping complex admittances did, and keep their bits. The
// zero parts differ only in sign, which never shows: an entry starts at
// +0 and a sum is −0 only when both addends are. A negated coefficient
// rounds as the negated product did, since w·(−c) = −(w·c) exactly.
type acStamp struct {
	idx      int
	re, coef float64
}

// NewACSolver checks stim against the circuit, compiles the stamps and
// the pattern, and sizes the buffers.
func (c *Circuit) NewACSolver(stim ACStimulus) (*ACSolver, error) {
	for name := range stim {
		if _, ok := c.names[name]; !ok {
			return nil, fmt.Errorf("circuit: AC stimulus references unknown element %q", name)
		}
	}
	n := c.size()
	if n == 0 {
		return nil, fmt.Errorf("circuit: empty circuit")
	}
	s := &ACSolver{
		c:   c,
		m:   linalg.NewCMatrix(n, n),
		pat: linalg.NewPattern(n),
		rhs: make([]complex128, n),
		res: ACResult{circuit: c, x: make([]complex128, n)},
	}
	add := func(i, j int, re, coef float64) {
		if i < 0 || j < 0 {
			return
		}
		s.stamps = append(s.stamps, acStamp{idx: i*n + j, re: re, coef: coef})
		s.pat.Add(i, j)
	}
	for _, r := range c.rs {
		g := 1 / r.ohms
		add(r.a, r.a, g, 0)
		add(r.b, r.b, g, 0)
		add(r.a, r.b, -g, 0)
		add(r.b, r.a, -g, 0)
	}
	for _, cp := range c.cs {
		add(cp.a, cp.a, 0, cp.farads)
		add(cp.b, cp.b, 0, cp.farads)
		add(cp.a, cp.b, 0, -cp.farads)
		add(cp.b, cp.a, 0, -cp.farads)
	}
	for _, l := range c.ls {
		add(l.a, l.branch, 1, 0)
		add(l.b, l.branch, -1, 0)
		add(l.branch, l.a, 1, 0)
		add(l.branch, l.b, -1, 0)
		add(l.branch, l.branch, 0, -l.henrys)
	}
	for _, v := range c.vs {
		add(v.a, v.branch, 1, 0)
		add(v.b, v.branch, -1, 0)
		add(v.branch, v.a, 1, 0)
		add(v.branch, v.b, -1, 0)
		s.rhs[v.branch] = stim[v.name] // quiet supplies are AC shorts (0)
	}
	for _, src := range c.is {
		amp := stim[src.name]
		if src.a >= 0 {
			s.rhs[src.a] -= amp
		}
		if src.b >= 0 {
			s.rhs[src.b] += amp
		}
	}
	return s, nil
}

// VoltageProbe resolves the named node's voltage for ACResult.At.
func (s *ACSolver) VoltageProbe(node string) (Probe, error) {
	idx, err := s.c.nodeIndex(node)
	return Probe{idx}, err
}

// CurrentProbe resolves the branch current of the named inductor or
// voltage source for ACResult.At.
func (s *ACSolver) CurrentProbe(name string) (Probe, error) {
	idx, err := s.c.branchIndex(name)
	return Probe{idx}, err
}

// Solve solves the small-signal phasor system at frequency f (Hz). The
// result shares the solver's buffers and is valid until the next Solve.
func (s *ACSolver) Solve(f float64) (*ACResult, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("circuit: invalid AC frequency %v", f)
	}
	w := 2 * math.Pi * f
	m := s.m.Data
	clear(m)
	for _, st := range s.stamps {
		m[st.idx] += complex(st.re, w*st.coef)
	}
	copy(s.res.x, s.rhs)
	if err := linalg.CSolvePattern(s.m, s.res.x, s.pat); err != nil {
		return nil, fmt.Errorf("circuit: AC solve at %g Hz: %w", f, err)
	}
	s.res.Freq = f
	return &s.res, nil
}

// Impedance returns the driving-point impedance seen from node to ground
// at frequency f, for a solver whose stimulus is a unit AC current through
// a current source connected to that node.
func (s *ACSolver) Impedance(f float64, node string) (complex128, error) {
	res, err := s.Solve(f)
	if err != nil {
		return 0, err
	}
	v, err := res.Voltage(node)
	if err != nil {
		return 0, err
	}
	// The source pulls current out of the node, so the driving-point
	// impedance is -V/I with I = 1.
	return -v, nil
}

// SolveAC solves the small-signal phasor system at frequency f (Hz): a
// one-frequency ACSolver.
func (c *Circuit) SolveAC(f float64, stim ACStimulus) (*ACResult, error) {
	s, err := c.NewACSolver(stim)
	if err != nil {
		return nil, err
	}
	return s.Solve(f)
}

// Impedance returns the driving-point impedance seen from the named node
// to ground at frequency f, by injecting a unit AC current through the
// named current source (which must connect that node).
func (c *Circuit) Impedance(f float64, isrcName, node string) (complex128, error) {
	s, err := c.NewACSolver(ACStimulus{isrcName: 1})
	if err != nil {
		return 0, err
	}
	return s.Impedance(f, node)
}
