package detrand

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"
)

func TestHashDeterministicAndContentSensitive(t *testing.T) {
	h1 := NewHash()
	h1.Float64(1.5)
	h1.Floats([]float64{1, 2, 3})
	h1.String("abc")
	h2 := NewHash()
	h2.Float64(1.5)
	h2.Floats([]float64{1, 2, 3})
	h2.String("abc")
	if h1.Sum() != h2.Sum() {
		t.Fatal("identical content hashed differently")
	}
	h3 := NewHash()
	h3.Float64(1.5)
	h3.Floats([]float64{1, 2, 4})
	h3.String("abc")
	if h1.Sum() == h3.Sum() {
		t.Fatal("different content collided")
	}
}

func TestHashLengthPrefixing(t *testing.T) {
	// [1,2]+[3] and [1]+[2,3] carry the same elements; the length prefixes
	// must keep them distinct.
	if HashFloats([]float64{1, 2}, []float64{3}) == HashFloats([]float64{1}, []float64{2, 3}) {
		t.Fatal("slice boundaries not hashed")
	}
	if HashFloats(nil) == HashFloats([]float64{}, []float64{}) {
		t.Fatal("empty-slice counts not hashed")
	}
}

func TestStreamReproducible(t *testing.T) {
	a := Stream(7, 123, 0)
	b := Stream(7, 123, 0)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same inputs gave different streams")
		}
	}
}

func TestStreamDecorrelated(t *testing.T) {
	// Different seeds, hashes or sample indices must give different draws.
	base := Stream(7, 123, 0).Float64()
	if Stream(8, 123, 0).Float64() == base {
		t.Error("seed ignored")
	}
	if Stream(7, 124, 0).Float64() == base {
		t.Error("content hash ignored")
	}
	if Stream(7, 123, 1).Float64() == base {
		t.Error("sample index ignored")
	}
}

func syncMapLen(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestGridStateReleasesFreedGrids: the grid-state memo must not pin the
// grids it is keyed by. Entries for 200 throwaway grids must drain from it
// once the grids are garbage.
func TestGridStateReleasesFreedGrids(t *testing.T) {
	const grids = 200
	before := syncMapLen(&gridStates)
	for i := 0; i < grids; i++ {
		grid := make([]float64, 64)
		for j := range grid {
			grid[j] = float64(i*64 + j)
		}
		GridState(grid)
	}
	if got := syncMapLen(&gridStates); got < before+grids {
		t.Fatalf("memo holds %d states after %d fresh grids, want at least %d", got, grids, before+grids)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		if got := syncMapLen(&gridStates); got <= before+grids/2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("memo still holds %d states after the grids were freed (had %d before)", syncMapLen(&gridStates), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// staticGrid lives outside the heap: the linker lays out a package-level
// composite literal.
var staticGrid = []float64{1e6, 2e6, 3e6, 4e6}

// TestGridStateStaticGrid: a grid in a package-level variable is memoized
// like any other. weak.Make aborts the process on such a pointer, so the
// memo must not call it there.
func TestGridStateStaticGrid(t *testing.T) {
	want := HashFloats(staticGrid)
	for i := 0; i < 2; i++ {
		if got := GridState(staticGrid); got != want {
			t.Fatalf("call %d: GridState = %#x, want %#x", i, got, want)
		}
	}
}

// TestGridMemoizeRejectsStaleEntry: an entry left at a grid's address by
// an earlier, freed array must miss. The stand-in stale entry's weak
// pointer names another array, as a recycled address would.
func TestGridMemoizeRejectsStaleEntry(t *testing.T) {
	var m sync.Map
	grid := []float64{1, 2, 3}
	other := []float64{4, 5, 6}
	key := gridMemoKey[struct{}]{addr: uintptr(unsafe.Pointer(&grid[0])), n: len(grid)}
	m.Store(key, &gridMemoEntry[int]{grid: weak.Make(&other[0]), v: 1})
	if got := GridMemoize(&m, grid, struct{}{}, func() int { return 2 }); got != 2 {
		t.Fatalf("stale entry served: got %d, want the recomputed 2", got)
	}
	if got := GridMemoize(&m, grid, struct{}{}, func() int { return 3 }); got != 2 {
		t.Fatalf("fresh entry missed: got %d, want the memoized 2", got)
	}
	runtime.KeepAlive(other)
}

// TestGridStateConcurrent: workers share some grids and free others while
// cleanups run; every call must return the grid's own hash.
func TestGridStateConcurrent(t *testing.T) {
	shared := make([][]float64, 4)
	for i := range shared {
		shared[i] = []float64{float64(i), 1, 2, 3}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := shared[i%len(shared)]
				if i%3 == 0 {
					g = []float64{float64(w), float64(i), 7}
				}
				if got, want := GridState(g), HashFloats(g); got != want {
					t.Errorf("worker %d call %d: %#x, want %#x", w, i, got, want)
					return
				}
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}(w)
	}
	wg.Wait()
}
