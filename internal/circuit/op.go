package circuit

import (
	"fmt"

	"repro/internal/linalg"
)

// OP holds a DC operating point: node voltages and source/inductor branch
// currents.
type OP struct {
	circuit *Circuit
	x       []float64
}

// OperatingPoint solves the DC operating point: capacitors open, inductors
// short, current sources at their t=0 value.
func (c *Circuit) OperatingPoint() (*OP, error) {
	n := c.size()
	if n == 0 {
		return nil, fmt.Errorf("circuit: empty circuit")
	}
	m := linalg.NewMatrix(n, n)
	rhs := make([]float64, n)

	for _, r := range c.rs {
		g := 1 / r.ohms
		addNode(m, r.a, r.a, g)
		addNode(m, r.b, r.b, g)
		addNode(m, r.a, r.b, -g)
		addNode(m, r.b, r.a, -g)
	}
	// Capacitors are open at DC: no stamp.
	for _, l := range c.ls {
		// Short: va - vb = 0 with a free branch current.
		addNode(m, l.a, l.branch, 1)
		addNode(m, l.b, l.branch, -1)
		addNode(m, l.branch, l.a, 1)
		addNode(m, l.branch, l.b, -1)
	}
	for _, v := range c.vs {
		addNode(m, v.a, v.branch, 1)
		addNode(m, v.b, v.branch, -1)
		addNode(m, v.branch, v.a, 1)
		addNode(m, v.branch, v.b, -1)
		rhs[v.branch] = v.volts
	}
	for _, s := range c.is {
		i0 := s.wave(0)
		addRHS(rhs, s.a, -i0)
		addRHS(rhs, s.b, i0)
	}
	f, err := linalg.Factor(m)
	if err != nil {
		return nil, fmt.Errorf("circuit: DC operating point: %w", err)
	}
	x, err := f.Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("circuit: DC operating point: %w", err)
	}
	return &OP{circuit: c, x: x}, nil
}
