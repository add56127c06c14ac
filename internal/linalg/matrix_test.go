package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("At(0,1) = %v, want 7", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Fatalf("At(1,2) = %v, want 0", got)
	}
	m.Zero()
	if got := m.At(0, 1); got != 0 {
		t.Fatalf("after Zero, At(0,1) = %v", got)
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", y)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong length did not panic")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

func TestFactorSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	f, err := Factor(m)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	x, err := f.Solve([]float64{5, 10})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approxEq(x[0], 1, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestFactorSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := Factor(m); err != ErrSingular {
		t.Fatalf("Factor of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("Factor of non-square matrix succeeded")
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	f, err := Factor(m)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("Solve with short RHS succeeded")
	}
}

func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
			m.Add(i, i, float64(n)) // diagonal dominance keeps it well conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := m.MulVec(want)
		f, err := Factor(m)
		if err != nil {
			return false
		}
		got, err := f.Solve(b)
		if err != nil {
			return false
		}
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 6
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
		m.Add(i, i, 10)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	f, err := Factor(m)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	got := make([]float64, n)
	scratch := make([]float64, n)
	if err := f.SolveInto(got, b, scratch); err != nil {
		t.Fatalf("SolveInto: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, Solve = %v", i, got[i], want[i])
		}
	}
	// Aliased x and b must also work.
	alias := make([]float64, n)
	copy(alias, b)
	if err := f.SolveInto(alias, alias, scratch); err != nil {
		t.Fatalf("SolveInto aliased: %v", err)
	}
	for i := range alias {
		if alias[i] != want[i] {
			t.Fatalf("aliased SolveInto[%d] = %v, want %v", i, alias[i], want[i])
		}
	}
}

func TestSolveIntoBadLengths(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	f, _ := Factor(m)
	if err := f.SolveInto(make([]float64, 2), make([]float64, 2), nil); err == nil {
		t.Fatal("SolveInto with nil scratch succeeded")
	}
}
