package candidate

import (
	"testing"

	"assocmine/internal/gen"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
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

// --- Ablations (DESIGN.md §4) ---

// webLogMatrix is the web-log workload of the root benchmarks' scale.
func webLogMatrix(b *testing.B) *matrix.Matrix {
	b.Helper()
	w, err := gen.GenerateWebLog(gen.WebLogConfig{Clients: 4000, URLs: 800, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return w.Matrix
}

// BenchmarkAblationCounterReset compares Row-Sorting (counter reuse,
// work proportional to agreements) against the brute-force O(k·m²)
// enumeration it replaces.
func BenchmarkAblationCounterReset(b *testing.B) {
	sig, err := minhash.Compute(webLogMatrix(b).Stream(), 50, 9)
	if err != nil {
		b.Fatal(err)
	}
	for name, generate := range map[string]func(*minhash.Signatures, float64) ([]pairs.Scored, Stats, error){
		"RowSort": RowSortMH, "HashCount": HashCountMH, "BruteForce": BruteForceMH,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := generate(sig, 0.4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKMHPrefilter compares the biased-then-unbiased
// cascade against applying the unbiased Theorem 2 estimator to every
// pair.
func BenchmarkAblationKMHPrefilter(b *testing.B) {
	sk, err := kminhash.Compute(webLogMatrix(b).Stream(), 50, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BiasedPrefilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := HashCountKMH(sk, KMHOptions{BiasedCutoff: 0.2, UnbiasedCutoff: 0.4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UnbiasedAllPairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := BruteForceKMH(sk, 0.4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
