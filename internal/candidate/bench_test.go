package candidate

import (
	"fmt"
	"testing"

	"assocmine/internal/gen"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
)

func BenchmarkRowSortMH(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sig, err := minhash.Compute(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RowSortMH(sig, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowSortMHParallel(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sig, err := minhash.Compute(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RowSortMHParallelProgress(nil, sig, 0.4, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashCountKMHParallel(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sk, err := kminhash.Compute(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	opt := KMHOptions{BiasedCutoff: 0.2, UnbiasedCutoff: 0.4}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := HashCountKMHParallelProgress(nil, sk, opt, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashCountMH(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sig, err := minhash.Compute(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HashCountMH(sig, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashCountKMH(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sk, err := kminhash.Compute(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HashCountKMH(sk, KMHOptions{BiasedCutoff: 0.2, UnbiasedCutoff: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}

// wideSource is phase 2 at the width that matters: 40k columns of
// Zipf-popular market rows, most columns with a handful of entries —
// the regime where grouping, not counting, is the cost.
func wideSource() *gen.ZipfSource {
	return &gen.ZipfSource{Kind: "market", Rows: 58_000, Cols: 40_000, Seed: 1}
}

func BenchmarkRowSortMHWide(b *testing.B) {
	sig, err := minhash.Compute(wideSource(), 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RowSortMH(sig, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashCountKMHWide(b *testing.B) {
	sk, err := kminhash.Compute(wideSource(), 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HashCountKMH(sk, KMHOptions{BiasedCutoff: 0.2, UnbiasedCutoff: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}
