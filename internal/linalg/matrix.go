// Package linalg provides the small dense linear-algebra kernels used by the
// circuit solver: real and complex LU factorization with partial pivoting,
// linear-system solves, and a few vector helpers.
//
// The matrices involved in modified nodal analysis of PDN models are tiny
// (typically fewer than 20 unknowns), so the implementation favours clarity
// and numerical robustness over blocking or parallelism.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Add accumulates v into the element at row i, column j. MNA stamping is a
// sequence of such accumulations, so this is the hot write path.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// LU is an LU factorization with partial pivoting of a square real matrix,
// suitable for repeated solves against different right-hand sides (the
// fixed-step transient solver factors once per time-step size).
type LU struct {
	n   int
	lu  []float64 // packed L (unit diagonal, below) and U (on/above diagonal)
	piv []int     // row permutation
}

// Factor computes the LU factorization of m. The input is not modified.
func Factor(m *Matrix) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot factor non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below diagonal.
		p, pmax := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivVal := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivVal
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve returns x such that A·x = b for the factored A. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.n
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveInto is like Solve but writes the solution into x (len n) and uses
// scratch (len n) to avoid allocation. x and b may alias.
func (f *LU) SolveInto(x, b, scratch []float64) error {
	n := f.n
	if len(b) != n || len(x) != n || len(scratch) < n {
		return fmt.Errorf("linalg: SolveInto dimension mismatch")
	}
	t := scratch[:n]
	for i := 0; i < n; i++ {
		t[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := t[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * t[j]
		}
		t[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := t[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * t[j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return ErrSingular
		}
		t[i] = s / d
	}
	copy(x, t)
	return nil
}
