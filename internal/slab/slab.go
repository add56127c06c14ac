// Package slab provides the grow-only scratch arena behind generation-
// batched evaluation: one Arena per batch worker hands out structure-of-
// arrays rows (current waveforms, half spectra, FFT scratch, received-power
// bins) from contiguous backing blocks, and a Reset rewinds the whole arena
// in O(1) instead of returning each row to a sync.Pool.
//
// Lifetime rules (see DESIGN.md §13): a row is valid until the next Reset of
// the arena that produced it, and must never escape into a cache or result —
// long-lived values (memoized spectra, measurements) are allocated normally.
// An Arena is not safe for concurrent use; batch paths keep one per worker.
package slab

// Arena is a grow-only bump allocator for float64 and complex128 rows.
// The zero value is ready to use.
type Arena struct {
	f    []float64
	c    []complex128
	fOff int
	cOff int
	// fNeed/cNeed accumulate the demand since the last Reset, so a block
	// that overflows mid-batch is regrown to the full batch footprint and
	// later batches of the same shape allocate nothing.
	fNeed int
	cNeed int
	used  int64 // bytes handed out since the last Reset
	high  int64 // high-water mark of used, across the arena's lifetime
}

// FloatsUninit returns a row of n float64s from the arena without zeroing
// it: the row may carry stale values from before the last Reset, so the
// caller must overwrite every element before reading any. Destinations
// that are filled wholesale (current waveforms, CombineInto outputs) skip
// a memclr the fill would immediately overwrite.
func (a *Arena) FloatsUninit(n int) []float64 {
	if n <= 0 {
		return nil
	}
	a.fNeed += n
	if a.fOff+n > len(a.f) {
		// Earlier rows keep the old block alive through their own slice
		// headers; new rows come from a block sized for the whole batch.
		size := 2 * len(a.f)
		if size < a.fNeed {
			size = a.fNeed
		}
		a.f = make([]float64, size)
		a.fOff = 0
	}
	row := a.f[a.fOff : a.fOff+n : a.fOff+n]
	a.fOff += n
	a.account(int64(n) * 8)
	return row
}

// ComplexesUninit returns a row of n complex128s from the arena without
// zeroing it; the same overwrite-before-read contract as FloatsUninit
// applies (FFT outputs and scratch are filled wholesale).
func (a *Arena) ComplexesUninit(n int) []complex128 {
	if n <= 0 {
		return nil
	}
	a.cNeed += n
	if a.cOff+n > len(a.c) {
		size := 2 * len(a.c)
		if size < a.cNeed {
			size = a.cNeed
		}
		a.c = make([]complex128, size)
		a.cOff = 0
	}
	row := a.c[a.cOff : a.cOff+n : a.cOff+n]
	a.cOff += n
	a.account(int64(n) * 16)
	return row
}

func (a *Arena) account(bytes int64) {
	a.used += bytes
	if a.used > a.high {
		a.high = a.used
	}
}

// Reset rewinds the arena: every outstanding row is invalidated and the
// backing capacity is retained for the next batch.
func (a *Arena) Reset() {
	a.fOff, a.cOff = 0, 0
	a.fNeed, a.cNeed = 0, 0
	a.used = 0
}

// HighWater returns the largest number of bytes the arena ever had handed
// out between Resets.
func (a *Arena) HighWater() int64 { return a.high }
