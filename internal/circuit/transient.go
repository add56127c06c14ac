package circuit

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Transient holds the result of a fixed-step transient analysis.
type Transient struct {
	// Dt is the time step; sample i is at time i*Dt, including t=0.
	Dt float64
	// Steps is the number of samples (len of each series).
	Steps int

	circuit  *Circuit
	nodeV    [][]float64 // [nodeIdx][step]
	branchI  [][]float64 // [branch-local idx][step], inductors then vsources
	branches map[string]int
}

// Voltage returns the voltage series of the named node. The returned slice
// is owned by the result; callers must not modify it.
func (tr *Transient) Voltage(node string) ([]float64, error) {
	idx, err := tr.circuit.nodeIndex(node)
	if err != nil {
		return nil, err
	}
	if idx < 0 {
		return make([]float64, tr.Steps), nil
	}
	return tr.nodeV[idx], nil
}

// Current returns the branch-current series of the named inductor or
// voltage source.
func (tr *Transient) Current(name string) ([]float64, error) {
	li, ok := tr.branches[name]
	if !ok {
		return nil, fmt.Errorf("circuit: no inductor or vsource named %q", name)
	}
	return tr.branchI[li], nil
}

// TransientOptions configures RunTransient.
type TransientOptions struct {
	Dt    float64 // time step, seconds; must be > 0
	Steps int     // number of steps after t=0; result has Steps+1 samples
	// FromOP initializes state from the DC operating point (default when
	// true); otherwise all capacitor voltages and inductor currents start
	// at zero.
	FromOP bool
}

// RunTransient integrates the circuit with the trapezoidal rule at a fixed
// step. The MNA matrix is factored once; each step solves a new RHS.
func (c *Circuit) RunTransient(opt TransientOptions) (*Transient, error) {
	if opt.Dt <= 0 || math.IsNaN(opt.Dt) {
		return nil, fmt.Errorf("circuit: invalid time step %v", opt.Dt)
	}
	if opt.Steps <= 0 {
		return nil, fmt.Errorf("circuit: invalid step count %d", opt.Steps)
	}
	n := c.size()
	if n == 0 {
		return nil, fmt.Errorf("circuit: empty circuit")
	}
	dt := opt.Dt

	// Assemble the constant MNA matrix with trapezoidal companion stamps.
	m := linalg.NewMatrix(n, n)
	for _, r := range c.rs {
		g := 1 / r.ohms
		addNode(m, r.a, r.a, g)
		addNode(m, r.b, r.b, g)
		addNode(m, r.a, r.b, -g)
		addNode(m, r.b, r.a, -g)
	}
	for _, cp := range c.cs {
		g := 2 * cp.farads / dt
		addNode(m, cp.a, cp.a, g)
		addNode(m, cp.b, cp.b, g)
		addNode(m, cp.a, cp.b, -g)
		addNode(m, cp.b, cp.a, -g)
	}
	for _, l := range c.ls {
		addNode(m, l.a, l.branch, 1)
		addNode(m, l.b, l.branch, -1)
		addNode(m, l.branch, l.a, 1)
		addNode(m, l.branch, l.b, -1)
		addNode(m, l.branch, l.branch, -2*l.henrys/dt)
	}
	for _, v := range c.vs {
		addNode(m, v.a, v.branch, 1)
		addNode(m, v.b, v.branch, -1)
		addNode(m, v.branch, v.a, 1)
		addNode(m, v.branch, v.b, -1)
	}
	f, err := linalg.Factor(m)
	if err != nil {
		return nil, fmt.Errorf("circuit: transient matrix: %w", err)
	}

	// Element state: capacitor (v, i), inductor (v, i).
	capV := make([]float64, len(c.cs))
	capI := make([]float64, len(c.cs))
	indV := make([]float64, len(c.ls))
	indI := make([]float64, len(c.ls))

	steps := opt.Steps + 1
	tr := &Transient{
		Dt:       dt,
		Steps:    steps,
		circuit:  c,
		nodeV:    make([][]float64, len(c.nodeName)),
		branches: make(map[string]int, len(c.ls)+len(c.vs)),
	}
	for i := range tr.nodeV {
		tr.nodeV[i] = make([]float64, steps)
	}
	tr.branchI = make([][]float64, len(c.ls)+len(c.vs))
	for i := range tr.branchI {
		tr.branchI[i] = make([]float64, steps)
	}
	for i, l := range c.ls {
		tr.branches[l.name] = i
	}
	for i, v := range c.vs {
		tr.branches[v.name] = len(c.ls) + i
	}

	nodeAt := func(x []float64, idx int) float64 {
		if idx < 0 {
			return 0
		}
		return x[idx]
	}

	// Initial state at t=0.
	var x0 []float64
	if opt.FromOP {
		op, err := c.OperatingPoint()
		if err != nil {
			return nil, err
		}
		x0 = op.x[:len(c.nodeName)]
		for i, cp := range c.cs {
			capV[i] = nodeAt(x0, cp.a) - nodeAt(x0, cp.b)
			capI[i] = 0
		}
		for i, l := range c.ls {
			indV[i] = 0
			indI[i] = op.x[l.branch]
		}
		for i := range c.nodeName {
			tr.nodeV[i][0] = x0[i]
		}
		for i := range c.ls {
			tr.branchI[i][0] = op.x[c.ls[i].branch]
		}
		for i := range c.vs {
			tr.branchI[len(c.ls)+i][0] = op.x[c.vs[i].branch]
		}
	}

	rhs := make([]float64, n)
	x := make([]float64, n)
	scratch := make([]float64, n)

	for step := 1; step < steps; step++ {
		t := float64(step) * dt
		for i := range rhs {
			rhs[i] = 0
		}
		for i, cp := range c.cs {
			g := 2 * cp.farads / dt
			ieq := g*capV[i] + capI[i]
			addRHS(rhs, cp.a, ieq)
			addRHS(rhs, cp.b, -ieq)
		}
		for i, l := range c.ls {
			rhs[l.branch] = -2*l.henrys/dt*indI[i] - indV[i]
		}
		for _, v := range c.vs {
			rhs[v.branch] = v.volts
		}
		for _, s := range c.is {
			iv := s.wave(t)
			addRHS(rhs, s.a, -iv)
			addRHS(rhs, s.b, iv)
		}
		if err := f.SolveInto(x, rhs, scratch); err != nil {
			return nil, fmt.Errorf("circuit: transient step %d: %w", step, err)
		}
		// Update element state.
		for i, cp := range c.cs {
			g := 2 * cp.farads / dt
			vNew := nodeAt(x, cp.a) - nodeAt(x, cp.b)
			iNew := g*vNew - (g*capV[i] + capI[i])
			capV[i], capI[i] = vNew, iNew
		}
		for i, l := range c.ls {
			iNew := x[l.branch]
			vNew := 2*l.henrys/dt*(iNew-indI[i]) - indV[i]
			indV[i], indI[i] = vNew, iNew
		}
		// Record.
		for i := range c.nodeName {
			tr.nodeV[i][step] = x[i]
		}
		for i, l := range c.ls {
			tr.branchI[i][step] = x[l.branch]
		}
		for i, v := range c.vs {
			tr.branchI[len(c.ls)+i][step] = x[v.branch]
		}
	}
	return tr, nil
}
