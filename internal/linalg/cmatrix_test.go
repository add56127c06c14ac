package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func cApproxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol*(1+cmplx.Abs(a)+cmplx.Abs(b))
}

func TestCMatrixAtSetAddZero(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Set(0, 0, 1+2i)
	m.Add(0, 0, 3i)
	if got := m.At(0, 0); got != 1+5i {
		t.Fatalf("At = %v, want 1+5i", got)
	}
	m.Zero()
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("after Zero, At = %v", got)
	}
}

func TestNewCMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCMatrix(-1, 2) did not panic")
		}
	}()
	NewCMatrix(-1, 2)
}

func TestCSolveKnown(t *testing.T) {
	// (1+i)x = 2i  =>  x = 2i/(1+i) = 1+i
	m := NewCMatrix(1, 1)
	m.Set(0, 0, 1+1i)
	x, err := CSolve(m, []complex128{2i})
	if err != nil {
		t.Fatalf("CSolve: %v", err)
	}
	if !cApproxEq(x[0], 1+1i, 1e-12) {
		t.Fatalf("x = %v, want 1+1i", x[0])
	}
}

func TestCSolveSingular(t *testing.T) {
	m := NewCMatrix(2, 2) // all zeros
	if _, err := CSolve(m, []complex128{1, 1}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// TestCSolveInPlaceSingular: a system whose only nonzero entries leave a
// later column empty must be reported singular, not divided through. The
// zero-skipping pivot search sees no candidate in column 1.
func TestCSolveInPlaceSingular(t *testing.T) {
	m := NewCMatrix(3, 3)
	m.Set(0, 0, 2)
	m.Set(1, 0, 1i)
	m.Set(2, 2, 4)
	if err := CSolveInPlace(m, []complex128{1, 2, 3}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if err := CSolveInPlace(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Fatal("non-square CSolveInPlace succeeded")
	}
	if err := CSolveInPlace(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Fatal("mismatched RHS CSolveInPlace succeeded")
	}
}

// TestCSolveInPlaceSolves: the in-place solve overwrites b with x.
func TestCSolveInPlaceSolves(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Set(0, 1, 2) // zero diagonal forces a row swap
	m.Set(1, 0, 1i)
	m.Set(1, 1, 1)
	b := []complex128{4, 1 + 1i}
	if err := CSolveInPlace(m, b); err != nil {
		t.Fatalf("CSolveInPlace: %v", err)
	}
	// 2y = 4 -> y = 2; ix + y = 1+i -> x = (i-1)/i = 1+i
	if !cApproxEq(b[0], 1+1i, 1e-12) || !cApproxEq(b[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [1+1i 2]", b)
	}
}

func TestCSolveDimensionErrors(t *testing.T) {
	if _, err := CSolve(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Fatal("non-square CSolve succeeded")
	}
	m := NewCMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	if _, err := CSolve(m, make([]complex128, 3)); err == nil {
		t.Fatal("mismatched RHS CSolve succeeded")
	}
}

func TestCSolveDoesNotModifyInputs(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1i)
	m.Set(1, 0, -1i)
	m.Set(1, 1, 3)
	b := []complex128{1, 2}
	orig := make([]complex128, len(m.Data))
	copy(orig, m.Data)
	if _, err := CSolve(m, b); err != nil {
		t.Fatalf("CSolve: %v", err)
	}
	for i := range orig {
		if m.Data[i] != orig[i] {
			t.Fatal("CSolve modified the input matrix")
		}
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("CSolve modified the RHS")
	}
}

// Property: random diagonally dominant complex systems round-trip.
func TestCSolveRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		m := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
			}
			m.Add(i, i, complex(float64(2*n), 0))
		}
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += m.At(i, j) * want[j]
			}
			b[i] = s
		}
		got, err := CSolve(m, b)
		if err != nil {
			return false
		}
		for i := range got {
			if !cApproxEq(got[i], want[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
