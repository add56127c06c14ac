package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// cSolveDense is the dense elimination CSolvePattern replaced, kept
// verbatim as its oracle: every row is a pivot candidate and every column
// right of the pivot is updated and back-substituted.
func cSolveDense(a *CMatrix, b []complex128) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: CSolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return fmt.Errorf("linalg: CSolve dimension mismatch: %d vs %d", len(b), n)
	}
	m, x := a.Data, b
	for k := 0; k < n; k++ {
		p, pmax := k, 0.0
		if v := m[k*n+k]; v != 0 {
			pmax = cmplx.Abs(v)
		}
		for i := k + 1; i < n; i++ {
			if v := m[i*n+k]; v != 0 {
				if av := cmplx.Abs(v); av > pmax {
					p, pmax = i, av
				}
			}
		}
		if pmax == 0 {
			return ErrSingular
		}
		if p != k {
			for j := k; j < n; j++ {
				m[p*n+j], m[k*n+j] = m[k*n+j], m[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		pv := m[k*n+k]
		for i := k + 1; i < n; i++ {
			if m[i*n+k] == 0 {
				continue
			}
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
	return nil
}

// sameBits compares two solutions in Float64bits, except that an exact
// zero may differ in sign (the dense loop's x − l·0 can turn −0 into +0).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a == 0 && b == 0
}

// The value families of the random systems. Each targets one part of the
// pivot rule.
const (
	famGauss    = iota // independent complex normals
	famTies            // exact magnitude ties: ±g, ±1, a+bi against b+ai, 5 against 3+4i
	famNearTies        // candidates within a few ulps (1e-13 relative at most) of each other
	famEdges           // rows scaled so squared magnitudes straddle 1e±290
	famCount
)

// randEntry draws one structural entry of family fam; base anchors the
// near ties.
func randEntry(r *rand.Rand, fam int, base complex128) complex128 {
	switch fam {
	case famTies:
		g := math.Ldexp(1, r.Intn(9)-4) * float64(1+r.Intn(3))
		a, b := float64(1+r.Intn(4)), float64(r.Intn(4))
		switch r.Intn(6) {
		case 0:
			return complex(g, 0) * []complex128{1, -1, 1i, -1i}[r.Intn(4)]
		case 1:
			return complex(a, b)
		case 2:
			return complex(b, a)
		case 3:
			return complex(-b, a)
		case 4: // |3+4i| = |5| in Go's hypot, with different components
			return complex(g, 0) * []complex128{5, 3 + 4i, 4 - 3i, -5i, -3 + 4i}[r.Intn(5)]
		default:
			return []complex128{1, -1}[r.Intn(2)]
		}
	case famNearTies:
		// base's components swapped, negated or nudged by a few ulps,
		// or base scaled by a relative step below the 1e-13 margin.
		re, im := real(base), imag(base)
		if r.Intn(2) == 0 {
			re, im = im, re
		}
		if r.Intn(2) == 0 {
			re = -re
		}
		switch r.Intn(3) {
		case 0:
			for k := r.Intn(4); k > 0; k-- {
				re = math.Nextafter(re, math.Inf(2*r.Intn(2)-1))
			}
		case 1:
			for k := r.Intn(4); k > 0; k-- {
				im = math.Nextafter(im, math.Inf(2*r.Intn(2)-1))
			}
		default:
			s := 1 + (r.Float64()-0.5)*2e-13
			re, im = re*s, im*s
		}
		return complex(re, im)
	default:
		return complex(r.NormFloat64(), r.NormFloat64())
	}
}

// randSystem draws an n×n system of family fam with the given density.
// A quarter of the diagonals are dropped, and rows are rescaled, so most
// systems swap rows. With singular set, one column is left empty or two
// rows share a single column, so the system is structurally singular.
func randSystem(r *rand.Rand, n int, density float64, fam int, singular bool) (*CMatrix, []complex128) {
	a := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i && r.Intn(4) != 0 || j != i && r.Float64() < density {
				a.Set(i, j, 1)
			}
		}
	}
	if singular && n > 1 {
		c := r.Intn(n)
		if r.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				a.Set(i, c, 0)
			}
		} else {
			i1, i2 := r.Intn(n), r.Intn(n)
			for i2 == i1 {
				i2 = r.Intn(n)
			}
			for j := 0; j < n; j++ {
				a.Set(i1, j, 0)
				a.Set(i2, j, 0)
			}
			a.Set(i1, c, 1)
			a.Set(i2, c, 1)
		}
	} else if singular {
		a.Set(0, 0, 0)
	}
	return revalue(r, a, fam)
}

// revalue draws values of family fam on a's structure, and a right-hand
// side, so a reused Pattern meets the same structure with other pivots.
// Each row has a scale (1e±142 to 1e±150 in the edge family); its
// right-hand side scales with it, so the solution stays finite while the
// scaled rows compete in the pivot search.
func revalue(r *rand.Rand, a *CMatrix, fam int) (*CMatrix, []complex128) {
	n := a.Rows
	out := NewCMatrix(n, n)
	b := make([]complex128, n)
	base := complex(r.NormFloat64(), r.NormFloat64())
	for i := 0; i < n; i++ {
		scale := 1.0
		switch {
		case fam == famEdges:
			scale = math.Pow(10, float64(2*r.Intn(2)-1)*(142+8*r.Float64()))
		case r.Intn(3) == 0:
			scale = float64(1 + i)
		}
		for j := 0; j < n; j++ {
			if a.At(i, j) != 0 {
				out.Set(i, j, randEntry(r, fam, base)*complex(scale, 0))
			}
		}
		b[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(scale, 0)
	}
	return out, b
}

// solveBoth runs the dense oracle and one pattern solve on copies of the
// system and fails on any difference in the error or the solution bits.
// A nil pat solves through CSolveInPlace. It returns the dense error.
func solveBoth(t *testing.T, what string, a *CMatrix, b []complex128, pat *Pattern) error {
	t.Helper()
	ad := &CMatrix{Rows: a.Rows, Cols: a.Cols, Data: append([]complex128(nil), a.Data...)}
	xd := append([]complex128(nil), b...)
	errD := cSolveDense(ad, xd)
	ap := &CMatrix{Rows: a.Rows, Cols: a.Cols, Data: append([]complex128(nil), a.Data...)}
	xp := append([]complex128(nil), b...)
	var errP error
	if pat == nil {
		errP = CSolveInPlace(ap, xp)
	} else {
		errP = CSolvePattern(ap, xp, pat)
	}
	if errD != errP {
		t.Fatalf("%s: dense error %v, pattern error %v", what, errD, errP)
	}
	if errD == nil {
		for i := range xd {
			if !sameBits(real(xd[i]), real(xp[i])) || !sameBits(imag(xd[i]), imag(xp[i])) {
				t.Fatalf("%s: x[%d] dense %v, pattern %v", what, i, xd[i], xp[i])
			}
		}
	}
	return errD
}

// TestCSolvePatternMatchesDense: the pattern elimination equals the dense
// oracle in Float64bits on random sparse systems of every order from 1 to
// 70 (two bitset words past 64), at several densities, in every value
// family, structurally singular ones included. Each system is solved
// through CSolveInPlace (a fresh pattern per call) and then through one
// Pattern reused four times: on the same values, whose recorded
// elimination replays whole, and on re-drawn values of the same
// structure, which replay the steps whose pivots repeat and record anew
// from the first that does not.
func TestCSolvePatternMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	var solved, swapped, singular, whole, partial int
	for n := 1; n <= 70; n++ {
		for _, density := range []float64{0.08, 0.25, 0.6, 1} {
			for fam := 0; fam < famCount; fam++ {
				sing := r.Intn(5) == 0
				a, b := randSystem(r, n, density, fam, sing)
				what := fmt.Sprintf("n=%d density=%v family=%d singular=%v", n, density, fam, sing)
				solveBoth(t, what, a, b, nil)
				pat := PatternOf(a)
				for rep := 0; rep < 4; rep++ {
					if rep > 1 {
						a, b = revalue(r, a, (fam+rep)%famCount)
					}
					prev := append([]int(nil), pat.piv[:pat.steps]...)
					if solveBoth(t, fmt.Sprintf("%s reuse %d", what, rep), a, b, pat) != nil {
						singular++
						continue
					}
					solved++
					same := 0
					for same < len(prev) && prev[same] == pat.piv[same] {
						same++
					}
					switch {
					case same == n:
						whole++
					case same > 0:
						partial++
					}
					for k := 0; k < n; k++ {
						if pat.piv[k] != k {
							swapped++
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d solved (%d with row swaps; %d replayed whole, %d in part), %d singular", solved, swapped, whole, partial, singular)
	if swapped < 1000 || solved-swapped < 30 || whole < 500 || partial < 100 || singular < 500 {
		t.Fatal("weak coverage")
	}
}
