package detrand

import (
	"runtime"
	"sync"
	"unsafe"
	"weak"
)

// gridMemoKey identifies a memo entry: a grid by the address and length of
// its backing array, plus the caller's key. The address alone does not pin
// the array; the entry's weak pointer tells whether the array is still the
// one the entry was computed from.
type gridMemoKey[K comparable] struct {
	addr uintptr
	n    int
	k    K
}

type gridMemoEntry[V any] struct {
	grid weak.Pointer[float64] // zero for a grid outside the heap
	v    V
}

// GridMemoize returns the value memoized in m for the grid xs (non-empty,
// never mutated afterwards) and the key k, computing it with compute on a
// miss. A grid is identified by its backing array, so a lookup costs no
// pass over xs.
//
// The memo never pins a grid: every fresh platform builds new grids, and
// holding them strongly would keep each one, and its entries, for the life
// of the process. Instead a cleanup on the array deletes the entry once
// the grid is freed. Until the cleanup runs, a new grid can reuse the
// address; the entry's weak pointer then reads nil, so the stale entry
// misses and is replaced.
//
// Grids in package-level variables live outside the heap. weak.Make
// rejects them with a fatal error, and runtime.AddCleanup returns the zero
// Cleanup for them. They are never freed, so their address alone
// identifies them and the entry keeps a zero weak pointer.
func GridMemoize[K comparable, V any](m *sync.Map, xs []float64, k K, compute func() V) V {
	p := &xs[0]
	key := gridMemoKey[K]{addr: uintptr(unsafe.Pointer(p)), n: len(xs), k: k}
	if v, ok := m.Load(key); ok {
		if e := v.(*gridMemoEntry[V]); e.grid == (weak.Pointer[float64]{}) || e.grid.Value() == p {
			return e.v
		}
	}
	e := &gridMemoEntry[V]{v: compute()}
	if runtime.AddCleanup(p, func(e *gridMemoEntry[V]) { m.CompareAndDelete(key, e) }, e) != (runtime.Cleanup{}) {
		e.grid = weak.Make(p)
	}
	m.Store(key, e)
	runtime.KeepAlive(p) // the cleanup must not run before the Store
	return e.v
}
