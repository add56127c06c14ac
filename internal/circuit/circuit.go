// Package circuit implements a small linear circuit simulator in the style
// of SPICE, sufficient for power-delivery-network analysis: resistors,
// capacitors, inductors, DC voltage sources and time-varying current
// sources, with DC operating point, fixed-step trapezoidal transient
// analysis and complex AC (frequency-domain) analysis via modified nodal
// analysis (MNA).
//
// The unknown vector contains the node voltages of every non-ground node
// followed by one branch current per voltage source and per inductor.
// Because the circuits are linear and the transient step is fixed, the MNA
// matrix is assembled and LU-factored once and only the right-hand side is
// rebuilt each step, making long transients cheap.
package circuit

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Ground is the reference node name. Its voltage is identically zero and it
// carries no unknown.
const Ground = "0"

// Waveform is a time-varying source value in SI units (amps or volts).
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// element kinds (for name lookup and error messages).
type elemKind int

const (
	kindR elemKind = iota
	kindC
	kindL
	kindV
	kindI
)

// String returns the element-kind name for error messages.
func (k elemKind) String() string {
	return [...]string{"resistor", "capacitor", "inductor", "vsource", "isource"}[k]
}

type resistor struct {
	name string
	a, b int
	ohms float64
}

type capacitor struct {
	name   string
	a, b   int
	farads float64
}

type inductor struct {
	name   string
	a, b   int
	henrys float64
	branch int // index of its branch-current unknown
}

type vsource struct {
	name   string
	a, b   int // + and - terminals
	volts  float64
	branch int
}

type isource struct {
	name string
	a, b int // current flows from a to b through the source
	wave Waveform
}

// Circuit is a netlist under construction. The zero value is not usable;
// call New.
type Circuit struct {
	nodes    map[string]int // name -> index; Ground maps to -1
	nodeName []string       // index -> name
	names    map[string]elemKind

	rs []resistor
	cs []capacitor
	ls []inductor
	vs []vsource
	is []isource
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{
		nodes: map[string]int{Ground: -1, "gnd": -1, "GND": -1},
		names: make(map[string]elemKind),
	}
}

// node interns a node name, allocating an index for new non-ground nodes.
func (c *Circuit) node(name string) int {
	if idx, ok := c.nodes[name]; ok {
		return idx
	}
	idx := len(c.nodeName)
	c.nodes[name] = idx
	c.nodeName = append(c.nodeName, name)
	return idx
}

func (c *Circuit) register(name string, kind elemKind) {
	if name == "" {
		panic("circuit: element name must not be empty")
	}
	if prev, dup := c.names[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate element name %q (already a %v)", name, prev))
	}
	c.names[name] = kind
}

func checkValue(what, name string, v float64) {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("circuit: %s %q has invalid value %v", what, name, v))
	}
}

// R adds a resistor of the given resistance between nodes a and b.
func (c *Circuit) R(name, a, b string, ohms float64) {
	checkValue("resistor", name, ohms)
	c.register(name, kindR)
	c.rs = append(c.rs, resistor{name, c.node(a), c.node(b), ohms})
}

// C adds a capacitor of the given capacitance between nodes a and b.
func (c *Circuit) C(name, a, b string, farads float64) {
	checkValue("capacitor", name, farads)
	c.register(name, kindC)
	c.cs = append(c.cs, capacitor{name, c.node(a), c.node(b), farads})
}

// L adds an inductor of the given inductance between nodes a and b.
// Its branch current (available from results by name) flows from a to b.
func (c *Circuit) L(name, a, b string, henrys float64) {
	checkValue("inductor", name, henrys)
	c.register(name, kindL)
	c.ls = append(c.ls, inductor{name: name, a: c.node(a), b: c.node(b), henrys: henrys})
}

// V adds a DC voltage source with + terminal a and - terminal b.
// Its branch current flows from a to b through the external circuit
// (i.e. a positive value means the source is delivering current from +).
func (c *Circuit) V(name, a, b string, volts float64) {
	if math.IsNaN(volts) || math.IsInf(volts, 0) {
		panic(fmt.Sprintf("circuit: vsource %q has invalid value %v", name, volts))
	}
	c.register(name, kindV)
	c.vs = append(c.vs, vsource{name: name, a: c.node(a), b: c.node(b), volts: volts})
}

// I adds a current source driving the waveform's current from node a to
// node b through the source (a positive value pulls current out of node a).
func (c *Circuit) I(name, a, b string, wave Waveform) {
	if wave == nil {
		panic(fmt.Sprintf("circuit: isource %q has nil waveform", name))
	}
	c.register(name, kindI)
	c.is = append(c.is, isource{name, c.node(a), c.node(b), wave})
}

// size returns the dimension of the MNA system and assigns branch indices.
func (c *Circuit) size() int {
	n := len(c.nodeName)
	b := n
	for i := range c.vs {
		c.vs[i].branch = b
		b++
	}
	for i := range c.ls {
		c.ls[i].branch = b
		b++
	}
	return b
}

// nodeIndex returns the unknown index of a node, or an error for unknown names.
func (c *Circuit) nodeIndex(name string) (int, error) {
	idx, ok := c.nodes[name]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", name)
	}
	return idx, nil
}

// addNode accumulates v at (i, j) skipping ground rows/columns.
func addNode(m *linalg.Matrix, i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	m.Add(i, j, v)
}

func addRHS(rhs []float64, i int, v float64) {
	if i < 0 {
		return
	}
	rhs[i] += v
}
