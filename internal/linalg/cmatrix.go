package linalg

import (
	"fmt"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, used by the AC (frequency
// domain) analysis where element stamps are complex admittances.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at row i, column j.
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Zero resets every element to 0 in place.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CSolve solves A·x = b by Gaussian elimination with partial pivoting.
// A and b are not modified: it copies them and runs CSolveInPlace.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	m := &CMatrix{Rows: a.Rows, Cols: a.Cols, Data: append([]complex128(nil), a.Data...)}
	x := append([]complex128(nil), b...)
	if err := CSolveInPlace(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// CSolveInPlace solves A·x = b by Gaussian elimination with partial
// pivoting, overwriting a with its eliminated form and b with x. Callers
// that rebuild the system per solve (the AC sweep) reuse both buffers.
//
// Entries that are exactly zero are skipped in the pivot search and as
// elimination rows. Both skips are exact: a zero entry can never beat the
// running maximum, and a zero multiplier 0/pv was already skipped, so
// the result is bit for bit that of the full search.
func CSolveInPlace(a *CMatrix, b []complex128) error {
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
