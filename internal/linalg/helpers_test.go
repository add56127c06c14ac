package linalg

import "fmt"

// The element accessors, the matrix-vector product and the one-shot
// complex solves below serve the tests only: production code stamps
// through Matrix.Add and solves an AC system through CSolvePattern with a
// Pattern built once per circuit.

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = m·x. It panics if dimensions disagree.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vector", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
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

// PatternOf returns the pattern of a matrix's nonzero entries.
func PatternOf(a *CMatrix) *Pattern {
	p := NewPattern(a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if v != 0 {
				p.Add(i, j)
			}
		}
	}
	return p
}

// CSolveInPlace solves A·x = b in place through CSolvePattern on a's own
// nonzero pattern.
func CSolveInPlace(a *CMatrix, b []complex128) error {
	return CSolvePattern(a, b, PatternOf(a))
}

// CSolve is CSolveInPlace on copies of A and b.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	m := &CMatrix{Rows: a.Rows, Cols: a.Cols, Data: append([]complex128(nil), a.Data...)}
	x := append([]complex128(nil), b...)
	if err := CSolveInPlace(m, x); err != nil {
		return nil, err
	}
	return x, nil
}
