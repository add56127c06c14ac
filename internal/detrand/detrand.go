// Package detrand derives deterministic, order-independent random streams
// from request content. The simulated instruments draw their measurement
// noise from streams seeded by (instrument seed, content hash of the
// request) rather than from one shared generator, so the noise a
// measurement sees depends only on what is being measured — never on how
// many measurements ran before it or on which goroutine issued it. That is
// the property that lets the GA evaluate a whole population concurrently
// and still produce bit-identical results at any parallelism setting.
package detrand

import (
	"math"
	"math/rand"
	"sync"
)

// FNV-1a 64-bit parameters (the offset seeds the fold; the prime is the
// per-word multiplier).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash accumulates a 64-bit content hash: an FNV-style multiply-xor fold
// applied per 64-bit word, with a downward xor-shift so high-order input
// bits (float exponents, sign bits) diffuse into the low half between
// words. One word costs three ALU ops instead of the byte-serial eight
// rounds of textbook FNV — the fold sits on the measurement hot path,
// where every analyzer request hashes its full watts spectrum.
type Hash struct {
	sum uint64
}

// NewHash returns an empty content hash.
func NewHash() *Hash { return &Hash{sum: fnvOffset} }

// Uint64 folds an 8-byte value into the hash.
func (h *Hash) Uint64(v uint64) {
	s := (h.sum ^ v) * fnvPrime
	h.sum = s ^ (s >> 29)
}

// Int folds an integer into the hash.
func (h *Hash) Int(v int) { h.Uint64(uint64(int64(v))) }

// Float64 folds the IEEE-754 bits of f into the hash. Note that +0 and -0
// hash differently; callers that care should normalize first.
func (h *Hash) Float64(f float64) { h.Uint64(math.Float64bits(f)) }

// Floats folds a slice length and every element into the hash.
func (h *Hash) Floats(xs []float64) {
	h.Int(len(xs))
	for _, x := range xs {
		h.Float64(x)
	}
}

// String folds a length-prefixed string into the hash.
func (h *Hash) String(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.sum = (h.sum ^ uint64(s[i])) * fnvPrime
	}
}

// Sum returns the accumulated hash.
func (h *Hash) Sum() uint64 { return h.sum }

// HashFloats hashes one or more float slices in one call.
func HashFloats(parts ...[]float64) uint64 {
	h := NewHash()
	for _, p := range parts {
		h.Floats(p)
	}
	return h.Sum()
}

// HashFrom resumes a hash from a saved intermediate state (a Sum taken
// part-way through the fold): folding b into HashFrom(HashFloats(a))
// gives HashFloats(a, b). Hot paths use it with GridState to skip
// re-folding a shared, immutable prefix on every call.
func HashFrom(state uint64) Hash { return Hash{sum: state} }

var gridStates sync.Map // GridMemoize's entries for GridState

// GridState returns the hash state after folding xs into a fresh hash,
// memoized per backing array (see GridMemoize). It is meant for
// long-lived, read-only grids (frequency axes of cached transfer sets)
// that prefix many request hashes; mutating a slice after passing it here
// is a bug.
func GridState(xs []float64) uint64 {
	if len(xs) == 0 {
		return HashFloats(xs)
	}
	return GridMemoize(&gridStates, xs, struct{}{}, func() uint64 { return HashFloats(xs) })
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that turns
// structured inputs (seed, content hash, small indices) into well-spread
// seeds, so nearby requests get decorrelated streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Splitmix is a splitmix64 generator. Seeding is a single store — unlike
// the stdlib lagged-Fibonacci source, whose ~600-round reseed dominated
// the cost of the per-sample noise streams the instruments request.
//
// It is a value type: a hot loop keeps its generator on the stack and
// calls Float64 and NormFloat64 directly, with no interface dispatch and
// no pool. Both match math/rand.Rand over the same generator draw for
// draw (rand.Rand derives its values from Source64.Uint64 through Int63),
// so Stream, which wraps a Splitmix in a rand.Rand, yields the same value
// stream as NewSplitmix with the same inputs.
type Splitmix struct{ s uint64 }

// NewSplitmix returns the generator Stream(seed, parts...) wraps.
func NewSplitmix(seed int64, parts ...uint64) Splitmix {
	return Splitmix{s: uint64(streamSeed(seed, parts))}
}

// Uint64 returns the next 64 random bits: the state advances by the
// golden-ratio increment mix64 adds, and the output is mix64 of the old
// state.
func (r *Splitmix) Uint64() uint64 {
	z := mix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}

// Int63 returns a non-negative 63-bit integer (rand.Source).
func (r *Splitmix) Int63() int64 { return int64(r.Uint64() >> 1) }

// Seed resets the generator state (rand.Source).
func (r *Splitmix) Seed(seed int64) { r.s = uint64(seed) }

// Float64 returns a uniform value in [0, 1), as math/rand.Rand.Float64
// does, including its resample of the rare draw that rounds up to 1.
func (r *Splitmix) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard normal value by math/rand's ziggurat
// (Marsaglia & Tsang, 2000), draw for draw.
func (r *Splitmix) NormFloat64() float64 {
	j := int32(r.Uint64() >> 32) // math/rand's Uint32; possibly negative
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		return x // better than 99% of draws
	}
	return r.normSlow(j, i, x)
}

// normSlow finishes a ziggurat draw j that missed the rectangle fast
// path: the base strip's tail sampling, or the wedge rejection test. A
// rejected draw starts over with a fresh one, as math/rand's loop does.
func (r *Splitmix) normSlow(j, i int32, x float64) float64 {
	if i == 0 {
		for {
			x = -math.Log(r.Float64()) * (1.0 / rn)
			y := -math.Log(r.Float64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return rn + x
		}
		return -rn - x
	}
	if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
		return x
	}
	return r.NormFloat64()
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// Pairs fills u[k], g[k] with the k-th (Float64, NormFloat64) pair, in
// order: the same values as len(u) alternating calls. NormFloat64 is over
// the compiler's inlining budget, so its fast path is repeated here; only
// the ~1% of normal draws that miss it call out.
func (r *Splitmix) Pairs(u, g []float64) {
	g = g[:len(u)]
	for k := range u {
		u[k] = r.Float64()
		j := int32(r.Uint64() >> 32)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) >= kn[i] {
			x = r.normSlow(j, i, x)
		}
		g[k] = x
	}
}

// Stream returns a deterministic random stream derived from the seed and
// the given parts (typically a content hash plus a sample index). The same
// inputs always produce the same stream, on any goroutine, in any order.
func Stream(seed int64, parts ...uint64) *rand.Rand {
	r := NewSplitmix(seed, parts...)
	return rand.New(&r)
}

func streamSeed(seed int64, parts []uint64) int64 {
	x := mix64(uint64(seed))
	for _, p := range parts {
		x = mix64(x ^ p)
	}
	return int64(x)
}
