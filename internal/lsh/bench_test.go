package lsh

import (
	"testing"

	"assocmine/internal/gen"
	"assocmine/internal/hashing"
)

func BenchmarkCandidates(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sig, err := mhSketch(m.Stream(), 50, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Candidates(sig, 5, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	d := Distribution{
		S:     []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95},
		Count: []float64{1e6, 1e5, 1e4, 3e3, 1e3, 300, 100, 50, 30, 20},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(d, 0.5, 5, 5000, 40, 500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterFunctions(b *testing.B) {
	b.Run("P", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ProbAtLeastOnce(0.5, 10, 20)
		}
	})
	b.Run("Q", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = SampledCollisionProb(0.5, 10, 20, 40)
		}
	})
}

// BenchmarkBandingWide is banding at the width that matters: 40 bands
// of 5 rows over 40k mostly sparse columns.
func BenchmarkBandingWide(b *testing.B) {
	src := &gen.ZipfSource{Kind: "market", Rows: 58_000, Cols: 40_000, Seed: 1}
	sig, err := mhSketch(src, 200, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Candidates(sig, 5, 40); err != nil {
			b.Fatal(err)
		}
	}
}
