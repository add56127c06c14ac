package pdn_test

// Bit-identity pins for the reused AC solver. solveACRef is the original
// one-frequency path, kept verbatim: stamp the MNA system into a fresh
// matrix, copy it, and eliminate with a full pivot search. Every transfer
// the solver produces must equal it in Float64bits, on every built-in
// domain at every powered-core count.

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/pdn"
	"repro/internal/platform"
)

// refElem is one element of the PDN netlist; kind is the SPICE letter and
// v the element value (zero for the quiet load).
type refElem struct {
	kind       byte
	name, a, b string
	v          float64
}

// refNetlist replicates the model's netlist in its construction order,
// which fixes the node numbering and so the bits of every solve.
// TestRefNetlistMatchesModel pins it against the model's own netlist.
func refNetlist(m *pdn.Model) []refElem {
	p := m.Params
	return []refElem{
		{'V', pdn.ElemVrm, pdn.NodeVrm, circuit.Ground, p.VNominal},
		{'R', "rvrm", pdn.NodeVrm, "vrm1", p.RVrm},
		{'L', "lvrm", "vrm1", pdn.NodePcb, p.LVrm},
		{'L', "eslpcb", pdn.NodePcb, "pcbx", p.ESLPcb},
		{'R', "esrpcb", "pcbx", "pcby", p.ESRPcb},
		{'C', "cpcb", "pcby", circuit.Ground, p.CPcb},
		{'R', "rpcb", pdn.NodePcb, "pcb1", p.RPcbTrace},
		{'L', "lpcb", "pcb1", pdn.NodePkg, p.LPcb},
		{'L', "eslpkg", pdn.NodePkg, "pkgx", p.ESLPkg},
		{'R', "esrpkg", "pkgx", "pkgy", p.ESRPkg},
		{'C', "cpkg", "pkgy", circuit.Ground, p.CPkg},
		{'R', "rpkg", pdn.NodePkg, "pkg1", p.RPkgTrace},
		{'L', pdn.ElemLPkg, "pkg1", pdn.NodeDie, p.LPkg},
		{'R', "rdie", pdn.NodeDie, "diex", p.RDie},
		{'C', "cdie", "diex", circuit.Ground, m.CDie()},
		{'I', pdn.ElemLoad, pdn.NodeDie, circuit.Ground, 0},
	}
}

// refElems is the netlist with node and branch indices resolved the way
// the circuit package numbers unknowns: nodes in order of first
// appearance, then one branch per voltage source, then one per inductor.
type refElems struct {
	nodes        map[string]int
	n            int
	rs, cs, ls   []refElem
	vs, is       []refElem
	ia, ib, ibr  map[string]int
	die, lpkgBrn int
}

func resolve(els []refElem) *refElems {
	r := &refElems{nodes: map[string]int{circuit.Ground: -1}, ia: map[string]int{}, ib: map[string]int{}, ibr: map[string]int{}}
	node := func(name string) int {
		if idx, ok := r.nodes[name]; ok {
			return idx
		}
		idx := r.n
		r.nodes[name] = idx
		r.n++
		return idx
	}
	for _, e := range els {
		r.ia[e.name], r.ib[e.name] = node(e.a), node(e.b)
		switch e.kind {
		case 'R':
			r.rs = append(r.rs, e)
		case 'C':
			r.cs = append(r.cs, e)
		case 'L':
			r.ls = append(r.ls, e)
		case 'V':
			r.vs = append(r.vs, e)
		case 'I':
			r.is = append(r.is, e)
		}
	}
	b := r.n
	for _, e := range r.vs {
		r.ibr[e.name] = b
		b++
	}
	for _, e := range r.ls {
		r.ibr[e.name] = b
		b++
	}
	r.n = b
	r.die, r.lpkgBrn = r.nodes[pdn.NodeDie], r.ibr[pdn.ElemLPkg]
	return r
}

// solveACRef is the original SolveAC: a fresh MNA matrix per frequency,
// stamped resistors, capacitors, inductors, voltage sources, then current
// sources, and solved by cSolveRef. It returns the die-voltage and
// package-inductor-current transfers of a unit load current.
func solveACRef(c *refElems, f float64) (hv, hi complex128) {
	n := c.n
	w := 2 * math.Pi * f
	m := linalg.NewCMatrix(n, n)
	rhs := make([]complex128, n)
	stim := map[string]complex128{pdn.ElemLoad: 1}

	cadd := func(i, j int, v complex128) {
		if i < 0 || j < 0 {
			return
		}
		m.Data[i*n+j] += v
	}
	caddRHS := func(i int, v complex128) {
		if i < 0 {
			return
		}
		rhs[i] += v
	}

	for _, r := range c.rs {
		g := complex(1/r.v, 0)
		a, b := c.ia[r.name], c.ib[r.name]
		cadd(a, a, g)
		cadd(b, b, g)
		cadd(a, b, -g)
		cadd(b, a, -g)
	}
	for _, cp := range c.cs {
		y := complex(0, w*cp.v)
		a, b := c.ia[cp.name], c.ib[cp.name]
		cadd(a, a, y)
		cadd(b, b, y)
		cadd(a, b, -y)
		cadd(b, a, -y)
	}
	for _, l := range c.ls {
		a, b, br := c.ia[l.name], c.ib[l.name], c.ibr[l.name]
		cadd(a, br, 1)
		cadd(b, br, -1)
		cadd(br, a, 1)
		cadd(br, b, -1)
		cadd(br, br, complex(0, -w*l.v))
	}
	for _, v := range c.vs {
		a, b, br := c.ia[v.name], c.ib[v.name], c.ibr[v.name]
		cadd(a, br, 1)
		cadd(b, br, -1)
		cadd(br, a, 1)
		cadd(br, b, -1)
		rhs[br] = stim[v.name]
	}
	for _, s := range c.is {
		amp := stim[s.name]
		caddRHS(c.ia[s.name], -amp)
		caddRHS(c.ib[s.name], amp)
	}
	x, err := cSolveRef(m, rhs)
	if err != nil {
		panic(fmt.Sprintf("reference AC solve at %g Hz: %v", f, err))
	}
	return x[c.die], x[c.lpkgBrn]
}

// cSolveRef is the original linalg.CSolve: copy, then Gaussian
// elimination with a full partial-pivot search.
func cSolveRef(a *linalg.CMatrix, b []complex128) ([]complex128, error) {
	n := a.Rows
	m := make([]complex128, n*n)
	copy(m, a.Data)
	x := make([]complex128, n)
	copy(x, b)

	for k := 0; k < n; k++ {
		p, pmax := k, cmplx.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(m[i*n+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return nil, linalg.ErrSingular
		}
		if p != k {
			for j := k; j < n; j++ {
				m[p*n+j], m[k*n+j] = m[k*n+j], m[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		pv := m[k*n+k]
		for i := k + 1; i < n; i++ {
			l := m[i*n+k] / pv
			if l == 0 {
				continue
			}
			m[i*n+k] = 0
			for j := k + 1; j < n; j++ {
				m[i*n+j] -= l * m[k*n+j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i*n+j] * x[j]
		}
		x[i] = s / m[i*n+i]
	}
	return x, nil
}

// builtinModels returns a PDN model for every built-in domain at every
// powered-core count.
func builtinModels(t *testing.T) map[string]*pdn.Model {
	t.Helper()
	out := map[string]*pdn.Model{}
	reg := platform.Builtin()
	for _, name := range reg.Names() {
		p, err := reg.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range p.Domains() {
			for cores := 1; cores <= d.Spec.TotalCores; cores++ {
				m, err := pdn.NewModel(d.Spec.PDN, cores)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/%s/%d", name, d.Spec.Name, cores)] = m
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no built-in domains")
	}
	return out
}

func sameComplex(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestRefNetlistMatchesModel: the replica must list the model's elements,
// nodes and values in the order the circuit package stamps them.
func TestRefNetlistMatchesModel(t *testing.T) {
	for key, m := range builtinModels(t) {
		var want bytes.Buffer
		if err := m.Netlist().WriteSpice(&want, "ref"); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		fmt.Fprintf(&got, "* ref\n")
		els := refNetlist(m)
		for _, kind := range []byte("RCLV") {
			for _, e := range els {
				if e.kind != kind {
					continue
				}
				if kind == 'V' {
					fmt.Fprintf(&got, "V%s %s %s DC %g\n", e.name, e.a, e.b, e.v)
				} else {
					fmt.Fprintf(&got, "%c%s %s %s %g\n", kind, e.name, e.a, e.b, e.v)
				}
			}
		}
		for _, e := range els {
			if e.kind == 'I' {
				fmt.Fprintf(&got, "* I%s carries a program-defined waveform; emitted at its t=0 value\n", e.name)
				fmt.Fprintf(&got, "I%s %s %s DC %g\n", e.name, e.a, e.b, e.v)
			}
		}
		fmt.Fprintf(&got, ".end\n")
		if got.String() != want.String() {
			t.Fatalf("%s: replica netlist\n%s\nmodel netlist\n%s", key, got.String(), want.String())
		}
	}
}

// TestTransfersMatchSolveACRef: Transfers must reproduce the original
// per-bin solve bit for bit at every built-in domain and powered-core
// count, on power-of-two and other grid lengths.
func TestTransfersMatchSolveACRef(t *testing.T) {
	dt := 0.25e-9
	fs := 1 / dt // at run time, as Transfers computes it
	for key, m := range builtinModels(t) {
		ref := resolve(refNetlist(m))
		for _, n := range []int{8192, 4096, 1000} {
			ts, err := m.Transfers(n, dt)
			if err != nil {
				t.Fatal(err)
			}
			for k := range ts.HV {
				hv, hi := solveACRef(ref, float64(k)*fs/float64(n))
				if !sameComplex(ts.HV[k], hv) || !sameComplex(ts.HI[k], hi) {
					t.Fatalf("%s n=%d bin %d: HV %v HI %v, reference %v %v", key, n, k, ts.HV[k], ts.HI[k], hv, hi)
				}
			}
		}
	}
}

// TestHarmonicResponseMatchesSolveACRef: the harmonic synthesis over the
// reused solver must equal the same synthesis over the original solves.
func TestHarmonicResponseMatchesSolveACRef(t *testing.T) {
	const samples = 64
	for key, m := range builtinModels(t) {
		ref := resolve(refNetlist(m))
		f0 := m.FirstOrderResonance() / 3
		coeffs := pdn.SquareWaveCoeffs(2, 15)
		got, err := m.HarmonicResponse(f0, coeffs, samples)
		if err != nil {
			t.Fatal(err)
		}
		hv := make([]complex128, len(coeffs))
		hi := make([]complex128, len(coeffs))
		for k := range coeffs {
			hv[k], hi[k] = solveACRef(ref, float64(k)*f0)
		}
		for s := 0; s < samples; s++ {
			v := m.Params.VNominal + real(hv[0]*coeffs[0])
			i := real(hi[0] * coeffs[0])
			for k := 1; k < len(coeffs); k++ {
				if coeffs[k] == 0 {
					continue
				}
				rot := cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(s)/float64(samples)))
				v += 2 * real(hv[k]*coeffs[k]*rot)
				i += 2 * real(hi[k]*coeffs[k]*rot)
			}
			if math.Float64bits(got.VDie[s]) != math.Float64bits(v) || math.Float64bits(got.IDie[s]) != math.Float64bits(i) {
				t.Fatalf("%s sample %d: (%v, %v), reference (%v, %v)", key, s, got.VDie[s], got.IDie[s], v, i)
			}
		}
	}
}
