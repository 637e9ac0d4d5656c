package fold

import (
	"fmt"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// BenchmarkFoldStream times phase 1 through the contract — a fresh
// state, one pass (fanned out to per-worker states above one worker),
// Finish — over the 5000 x 500, 2 % matrix internal/minhash's
// BenchmarkCompute folds serially.
func BenchmarkFoldStream(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	mb := matrix.NewBuilder(5000, 500)
	for c := 0; c < 500; c++ {
		for r := 0; r < 5000; r++ {
			if rng.Float64() < 0.02 {
				mb.Set(r, c)
			}
		}
	}
	src := mb.Build().Stream()
	for _, fd := range folds {
		f, _ := For(fd.algo)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", fd.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := f.New(src.NumCols(), 50, 7)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := FoldStream(src, st, workers); err != nil {
						b.Fatal(err)
					}
					st.Finish()
				}
			})
		}
	}
}
