package slab

// Floats returns a zeroed row of n float64s from the arena.
func (a *Arena) Floats(n int) []float64 {
	row := a.FloatsUninit(n)
	clear(row)
	return row
}

// Complexes returns a zeroed row of n complex128s from the arena.
func (a *Arena) Complexes(n int) []complex128 {
	row := a.ComplexesUninit(n)
	clear(row)
	return row
}
