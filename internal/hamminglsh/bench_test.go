package hamminglsh

import (
	"testing"

	"assocmine/internal/hashing"
)

func BenchmarkCandidates(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedSparse(rng, 8192, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Candidates(m.Stream(), Options{R: 8, L: 10, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
