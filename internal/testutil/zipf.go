package testutil

import (
	"math/rand"
	"slices"
)

// ZipfRows returns rows rows over cols columns, the phase-1 benchmarks'
// fixed input: each row draws between 1 and 2·meanLen-1 column ids from
// Zipf(s) over [0, cols) and keeps the distinct ones, sorted. The same
// arguments always return the same rows.
func ZipfRows(seed int64, rows, cols, meanLen int, s float64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(cols-1))
	out := make([][]int32, rows)
	for r := range out {
		n := 1 + rng.Intn(2*meanLen-1)
		row := make([]int32, 0, n)
		for range n {
			row = append(row, int32(z.Uint64()))
		}
		slices.Sort(row)
		out[r] = slices.Compact(row)
	}
	return out
}
