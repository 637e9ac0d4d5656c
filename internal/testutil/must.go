package testutil

import (
	"math"

	"assocmine/internal/hashing"
)

// Must returns v, panicking if err is non-nil: the one-line form of a
// constructor call whose arguments a test wrote by hand.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SplitMix64 returns the stream of 64-bit values that
// hashing.NewSplitMix64(seed) draws from: its i-th value is
// hashing.Mix64(seed + i·0x9e3779b97f4a7c15). Tests that want raw
// random words use it; non-test code takes them through the
// generator's Float64, Intn and Perm.
func SplitMix64(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		return hashing.Mix64(seed)
	}
}

// PlantedPairs returns the columns of a matrix holding one column pair
// per similarity in sims. Pair p is columns 2p and 2p+1 over rows
// [p·union, (p+1)·union): both columns hold the first round(s·union) of
// those rows and split the rest between them, so the pair's Jaccard
// similarity is exactly round(s·union)/union. Rows are the matrix's row
// count, len(sims)·union.
func PlantedPairs(union int, sims []float64) (rows int, cols [][]int32) {
	for p, s := range sims {
		base := p * union
		shared := int(math.Round(s * float64(union)))
		var a, b []int32
		for r := 0; r < union; r++ {
			row := int32(base + r)
			switch {
			case r < shared:
				a, b = append(a, row), append(b, row)
			case (r-shared)%2 == 0:
				a = append(a, row)
			default:
				b = append(b, row)
			}
		}
		cols = append(cols, a, b)
	}
	return len(sims) * union, cols
}
