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
	if idx < 0 {
		return 0, nil
	}
	return r.x[idx], nil
}

// Current returns the complex branch-current phasor of the named inductor
// or voltage source.
func (r *ACResult) Current(name string) (complex128, error) {
	for _, l := range r.circuit.ls {
		if l.name == name {
			return r.x[l.branch], nil
		}
	}
	for _, v := range r.circuit.vs {
		if v.name == name {
			return r.x[v.branch], nil
		}
	}
	return 0, fmt.Errorf("circuit: no inductor or vsource named %q", name)
}

// ACStimulus gives the small-signal amplitude of each stimulated source by
// element name. Sources not listed are quiet (DC supplies become AC shorts,
// current sources open), which is the standard small-signal treatment.
type ACStimulus map[string]complex128

// ACSolver solves one circuit's small-signal system at frequency after
// frequency with one MNA buffer and one right-hand side. Each Solve
// replays every stamp into the zeroed buffer in a fixed order and
// eliminates in place, so a sweep allocates nothing per frequency and
// every point is bit for bit a fresh one-frequency solve.
//
// The solver snapshots the netlist: adding elements to the circuit after
// NewACSolver is a bug. An ACSolver is not safe for concurrent use.
type ACSolver struct {
	c    *Circuit
	stim ACStimulus
	m    *linalg.CMatrix
	res  ACResult // x is the right-hand side, solved in place
}

// NewACSolver checks stim against the circuit and sizes the buffers.
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
	return &ACSolver{
		c:    c,
		stim: stim,
		m:    linalg.NewCMatrix(n, n),
		res:  ACResult{circuit: c, x: make([]complex128, n)},
	}, nil
}

// Solve solves the small-signal phasor system at frequency f (Hz). The
// result shares the solver's buffers and is valid until the next Solve.
func (s *ACSolver) Solve(f float64) (*ACResult, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("circuit: invalid AC frequency %v", f)
	}
	c, m, rhs := s.c, s.m, s.res.x
	w := 2 * math.Pi * f
	m.Zero()
	clear(rhs)

	cadd := func(i, j int, v complex128) {
		if i < 0 || j < 0 {
			return
		}
		m.Add(i, j, v)
	}
	caddRHS := func(i int, v complex128) {
		if i < 0 {
			return
		}
		rhs[i] += v
	}

	for _, r := range c.rs {
		g := complex(1/r.ohms, 0)
		cadd(r.a, r.a, g)
		cadd(r.b, r.b, g)
		cadd(r.a, r.b, -g)
		cadd(r.b, r.a, -g)
	}
	for _, cp := range c.cs {
		y := complex(0, w*cp.farads)
		cadd(cp.a, cp.a, y)
		cadd(cp.b, cp.b, y)
		cadd(cp.a, cp.b, -y)
		cadd(cp.b, cp.a, -y)
	}
	for _, l := range c.ls {
		cadd(l.a, l.branch, 1)
		cadd(l.b, l.branch, -1)
		cadd(l.branch, l.a, 1)
		cadd(l.branch, l.b, -1)
		cadd(l.branch, l.branch, complex(0, -w*l.henrys))
	}
	for _, v := range c.vs {
		cadd(v.a, v.branch, 1)
		cadd(v.b, v.branch, -1)
		cadd(v.branch, v.a, 1)
		cadd(v.branch, v.b, -1)
		rhs[v.branch] = s.stim[v.name] // quiet supplies are AC shorts (0)
	}
	for _, src := range c.is {
		amp := s.stim[src.name]
		caddRHS(src.a, -amp)
		caddRHS(src.b, amp)
	}
	if err := linalg.CSolveInPlace(m, rhs); err != nil {
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
