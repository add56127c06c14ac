package linalg

import (
	"fmt"
	"math"
	"math/bits"
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

// Pattern is the structural pattern of a square system: for each row, the
// set of columns whose entries may be nonzero, as a bitset. Every entry
// outside the pattern must be zero. A Pattern built once serves every
// system stamped at the same positions (the AC sweep builds one per
// circuit).
//
// A Pattern also records the structure of its last elimination: each
// step's pivot row, the rows with an entry in the pivot column and the
// pivot row's columns right of the pivot. That structure depends only on
// the pivot rows chosen, so the next CSolvePattern replays it for as long
// as its pivots repeat and touches no bitset; from the first step that
// pivots elsewhere it tracks fill-in again and records anew. A Pattern is
// therefore not safe for concurrent use.
type Pattern struct {
	n, w int      // order and 64-bit words per row
	rows []uint64 // row i's columns in rows[i*w : (i+1)*w]

	// fill holds rows plus the fill-in of the recorded steps before
	// step at (at < 0: not derived yet).
	fill []uint64
	at   int

	// The recorded steps: step k pivoted on row piv[k]; its candidate
	// rows are list[off[2k]:off[2k+1]] and the pivot row's columns right
	// of k are list[off[2k+1]:off[2k+2]]. Rows are numbered as they stand
	// at step k (after the earlier swaps). Because no later step touches
	// pivot row k, the second list is also row k's back-substitution.
	steps int
	piv   []int
	off   []int
	list  []int

	nz []int // scratch: the current step's nonzero candidates
}

// NewPattern returns an empty pattern for n×n systems.
func NewPattern(n int) *Pattern {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid pattern order %d", n))
	}
	w := (n + 63) / 64
	return &Pattern{
		n: n, w: w,
		rows: make([]uint64, n*w), fill: make([]uint64, n*w), at: -1,
		piv: make([]int, n), off: make([]int, 2*n+1), nz: make([]int, n),
	}
}

// Add marks entry (i, j) as structurally nonzero. It discards the
// recorded elimination.
func (p *Pattern) Add(i, j int) {
	p.rows[i*p.w+j>>6] |= 1 << (j & 63)
	p.steps, p.at = 0, -1
}

// PatternOf returns the pattern of a square matrix's nonzero entries.
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

// cands returns step k's recorded candidate rows.
func (p *Pattern) cands(k int) []int { return p.list[p.off[2*k]:p.off[2*k+1]] }

// right returns step k's recorded pivot-row columns right of k.
func (p *Pattern) right(k int) []int { return p.list[p.off[2*k+1]:p.off[2*k+2]] }

// fillTo brings fill to its state before step k by replaying the
// recorded steps from the pattern.
func (p *Pattern) fillTo(k int) {
	if p.at == k {
		return
	}
	copy(p.fill, p.rows)
	for s := 0; s < k; s++ {
		p.fillStep(s)
	}
	p.at = k
}

// fillStep applies step k's fill-in to fill: the pivot row swaps into
// row k and its columns join every candidate row's. Numerically zero
// candidates join too, so the structure stays a function of the pivots.
func (p *Pattern) fillStep(k int) {
	w, f, piv := p.w, p.fill, p.piv[k]
	for wi := 0; wi < w; wi++ {
		f[piv*w+wi], f[k*w+wi] = f[k*w+wi], f[piv*w+wi]
	}
	for _, i := range p.cands(k) {
		switch i {
		case piv:
			continue
		case k:
			i = piv // the old diagonal row, swapped down
		}
		for wi := k >> 6; wi < w; wi++ {
			f[i*w+wi] |= f[k*w+wi]
		}
	}
}

// recordCands records step k's candidate rows, the rows from k on with
// an entry in column k before the step.
func (p *Pattern) recordCands(k int) {
	p.fillTo(k)
	p.list = p.list[:p.off[2*k]]
	kw, kb := k>>6, uint64(1)<<(k&63)
	for i := k; i < p.n; i++ {
		if p.fill[i*p.w+kw]&kb != 0 {
			p.list = append(p.list, i)
		}
	}
	p.off[2*k+1] = len(p.list)
}

// recordPivot records that step k pivots on row piv, applies the step to
// fill and records the pivot row's columns right of k; later steps are
// forgotten.
func (p *Pattern) recordPivot(k, piv int) {
	p.fillTo(k)
	p.piv[k] = piv
	p.fillStep(k)
	p.list = p.list[:p.off[2*k+1]]
	kw := k >> 6
	for wi := kw; wi < p.w; wi++ {
		word := p.fill[k*p.w+wi]
		if wi == kw {
			word &^= uint64(2)<<(k&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			p.list = append(p.list, wi<<6|bits.TrailingZeros64(word))
		}
	}
	p.off[2*k+2] = len(p.list)
	p.steps, p.at = k+1, k+1
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
// pivoting, overwriting a with its eliminated form and b with x. It scans
// a's nonzero pattern and runs CSolvePattern; callers that solve many
// systems with one pattern build it once and call CSolvePattern directly.
func CSolveInPlace(a *CMatrix, b []complex128) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: CSolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	return CSolvePattern(a, b, PatternOf(a))
}

// CSolvePattern solves A·x = b in place by Gaussian elimination with
// partial pivoting, overwriting a with its eliminated form and b with x.
// Every nonzero entry of a must lie inside pat. The elimination visits
// only pattern entries: each step ORs the pivot row's columns into the
// rows below that share its pivot column (the fill-in), so the pivot
// search reads only structural candidates, and the update and
// back-substitution loops only pattern columns.
//
// The result is bit for bit that of the dense loop (every candidate,
// every column), apart from the sign of an exact zero. The skipped terms
// are x − l·0 and s − 0·x[j]. With finite l and x[j] they leave every
// nonzero value alone and can only turn −0 into +0; with a non-finite one
// the dense loop would write NaN there and this loop does not. The dense
// loop's own zero skips carry over: a zero entry never beats the running
// maximum, and its multiplier 0/pv would be skipped. Pivots are chosen as
// the dense rule chooses them (see magGreater).
func CSolvePattern(a *CMatrix, b []complex128, pat *Pattern) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: CSolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return fmt.Errorf("linalg: CSolve dimension mismatch: %d vs %d", len(b), n)
	}
	if pat.n != n {
		return fmt.Errorf("linalg: CSolve pattern of order %d for a %dx%d system", pat.n, n, n)
	}
	m, x := a.Data, b
	for k := 0; k < n; k++ {
		if k == pat.steps {
			pat.recordCands(k)
		}
		nz := pat.nz[:0]
		p, ps, pa := -1, 0.0, -1.0
		var pv complex128
		for _, i := range pat.cands(k) {
			v := m[i*n+k]
			if v == 0 {
				continue
			}
			nz = append(nz, i)
			s := real(v)*real(v) + imag(v)*imag(v)
			if p >= 0 {
				// The clear-cut comparisons inline, the rest in
				// magGreater.
				if inSqRange(s) && inSqRange(ps) {
					if s < ps*(1-pivotMargin) {
						continue
					}
					if s <= ps*(1+pivotMargin) && !magGreater(v, pv, &pa) {
						continue
					}
				} else if !magGreater(v, pv, &pa) {
					continue
				}
			} else if i > k && !inSqRange(s) && !(cmplx.Abs(v) > 0) {
				// With no diagonal the dense rule needs |v| > 0: only a
				// NaN magnitude fails it.
				continue
			}
			p, pv, ps, pa = i, v, s, -1
		}
		if p < 0 {
			return ErrSingular
		}
		if k == pat.steps || p != pat.piv[k] {
			pat.recordPivot(k, p)
		}
		if p != k {
			for j := k; j < n; j++ {
				m[p*n+j], m[k*n+j] = m[k*n+j], m[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		right, krow := pat.right(k), m[k*n:k*n+n]
		for _, i := range nz {
			switch i {
			case p:
				continue
			case k:
				i = p // the old diagonal row, swapped down
			}
			l := m[i*n+k] / pv
			if l == 0 {
				continue
			}
			m[i*n+k] = 0
			row := m[i*n : i*n+n]
			for _, j := range right {
				row[j] -= l * krow[j]
			}
			x[i] -= l * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := m[i*n : i*n+n]
		for _, j := range pat.right(i) {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}

// The pivot search compares squared magnitudes s = re²+im² where the dense
// rule compares cmplx.Abs values with >, and picks the same row. s decides
// a comparison on its own only when both values lie in [sqLo, sqHi] and
// differ by more than the relative pivotMargin; every other comparison
// goes to magGreater, which evaluates the dense rule itself.
//
// Why that picks the same row. Let u = 2⁻⁵³. In [sqLo, sqHi] neither
// square overflows, and an underflowing smaller square loses at most
// 2⁻¹⁰⁷⁵ against a sum of at least 1e-290, so s = |z|²(1+σ) with
// |σ| < 2.3e-16, fused multiply-add or not. Go's hypot
// (max·sqrt(1+(min/max)²), assembly or not) rounds five times, so
// cmplx.Abs(z) = |z|(1+η) with |η| < 4u < 4.5e-16. If sv > su(1+1e-13),
// the threshold itself rounded twice, then
// |v|/|u| > sqrt((1+1e-13)(1−3u)(1−σ)/(1+σ)) > 1+4.9e-14, and
// cmplx.Abs(v)/cmplx.Abs(u) > (1+4.9e-14)(1−η)/(1+η) > 1: the dense rule
// also says greater. The case sv < su(1−1e-13) is the mirror image. NaN
// and ±Inf fall outside the range.
const (
	sqLo        = 1e-290
	sqHi        = 1e290
	pivotMargin = 1e-13
)

// inSqRange reports whether a squared magnitude lies in [sqLo, sqHi]; it
// is false for NaN and ±Inf.
func inSqRange(s float64) bool { return s >= sqLo && s <= sqHi }

// magGreater reports cmplx.Abs(v) > cmplx.Abs(u), the dense pivot rule;
// *ua caches cmplx.Abs(u) (negative until needed). Two values with equal
// {|re|, |im|} sets have equal hypots, since hypot takes absolute values
// and orders them by size, so the later one is not greater and the
// earlier row keeps the pivot. That check saves two hypots on the ±1 and
// ±g ties MNA stamps produce.
func magGreater(v, u complex128, ua *float64) bool {
	vr, vi := math.Abs(real(v)), math.Abs(imag(v))
	ur, ui := math.Abs(real(u)), math.Abs(imag(u))
	if vr == ur && vi == ui || vr == ui && vi == ur {
		return false
	}
	if *ua < 0 {
		*ua = cmplx.Abs(u)
	}
	return cmplx.Abs(v) > *ua
}
