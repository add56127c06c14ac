package detrand

import (
	"math/rand"
	"testing"
)

// normDraws reports how many Uint64 draws the NormFloat64 call that moved
// a generator from before to after consumed: 1 on the ziggurat's fast
// path, more when it took the slow path.
func normDraws(before, after Splitmix) int {
	n := 0
	for before.s != after.s {
		before.Uint64()
		n++
	}
	return n
}

// TestSplitmixMatchesStream: Splitmix's Float64, NormFloat64 and Pairs
// must reproduce math/rand.Rand's value stream over the same generator,
// draw for draw, across every ziggurat path.
func TestSplitmixMatchesStream(t *testing.T) {
	const seeds, draws = 200, 10000
	var wedge, tail int
	for seed := 0; seed < seeds; seed++ {
		ref := Stream(int64(seed), uint64(seed)*7919, 3)
		r := NewSplitmix(int64(seed), uint64(seed)*7919, 3)
		pick := rand.New(rand.NewSource(int64(seed)))
		u := make([]float64, 64)
		g := make([]float64, 64)
		for n := 0; n < draws; {
			switch pick.Intn(3) {
			case 0:
				if a, b := r.Float64(), ref.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, n, a, b)
				}
				n++
			case 1:
				before := r
				a, b := r.NormFloat64(), ref.NormFloat64()
				if a != b {
					t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, n, a, b)
				}
				if normDraws(before, r) > 1 {
					if int32(before.Uint64()>>32)&0x7F == 0 {
						tail++
					} else {
						wedge++
					}
				}
				n++
			default:
				k := 1 + pick.Intn(len(u))
				r.Pairs(u[:k], g[:k])
				for i := 0; i < k; i++ {
					if a, b := u[i], ref.Float64(); a != b {
						t.Fatalf("seed %d pair %d: uniform %v, math/rand %v", seed, i, a, b)
					}
					if a, b := g[i], ref.NormFloat64(); a != b {
						t.Fatalf("seed %d pair %d: normal %v, math/rand %v", seed, i, a, b)
					}
				}
				n += 2 * k
			}
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("ziggurat slow path not exercised: %d wedge, %d tail draws", wedge, tail)
	}
}

// unmix inverts the splitmix64 output function, so a test can place the
// generator right before a chosen output.
func unmix(z uint64) uint64 {
	inv := func(a uint64) uint64 { // multiplicative inverse mod 2^64 (a odd)
		x := a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	unshift := func(z uint64, k uint) uint64 {
		for x := z; ; {
			next := z ^ (x >> k)
			if next == x {
				return x
			}
			x = next
		}
	}
	z = unshift(z, 31)
	z *= inv(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inv(0xbf58476d1ce4e5b9)
	return unshift(z, 30) - 0x9e3779b97f4a7c15
}

// TestSplitmixFloat64Resample: an Int63 so close to 1<<63 that the
// division rounds to 1.0 is redrawn, as math/rand does, by Float64 and by
// Pairs alike.
func TestSplitmixFloat64Resample(t *testing.T) {
	for _, top := range []uint64{^uint64(0), ^uint64(0) - 1000} {
		r := Splitmix{s: unmix(top)}
		if probe := r; probe.Uint64() != top {
			t.Fatalf("unmix(%#x) does not invert the output function", top)
		}
		if float64(int64(top>>1))/(1<<63) != 1 {
			t.Fatalf("%#x does not round to 1.0", top)
		}
		ref := r
		std := rand.New(&ref)
		a := r
		u, g := make([]float64, 3), make([]float64, 3)
		a.Pairs(u, g)
		for i := range u {
			if want := std.Float64(); r.Float64() != want || u[i] != want {
				t.Fatalf("pair %d: uniform diverged from math/rand", i)
			}
			if want := std.NormFloat64(); r.NormFloat64() != want || g[i] != want {
				t.Fatalf("pair %d: normal diverged from math/rand", i)
			}
		}
	}
}
