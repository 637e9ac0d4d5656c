package candidate

import (
	"context"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/gen"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

func BenchmarkRowSortMH(b *testing.B) {
	rng := hashing.NewSplitMix64(1)
	m, _ := plantedMatrix(rng, 2000, 400)
	sig, err := mhSketch(m.Stream(), 50, 7)
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
	sig, err := mhSketch(m.Stream(), 50, 7)
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
	sk, err := kmhSketch(m.Stream(), 50, 7)
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
	sig, err := mhSketch(wideSource(), 64, 7)
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
	sk, err := kmhSketch(wideSource(), 256, 7)
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

// BenchmarkScanWide is phase 2 the way a resident sketch pays for it:
// over a prebuilt MH (k = 64), K-MH (k = 256) or M-LSH (cand-wide's
// layout: k = 200, 40 bands of 5 rows) index of wideSource() at
// threshold 0.5, δ 0.2, with the index built outside the timer, one
// serial scan (scan: one side of every column, as cand-wide's row-sort,
// hash-count and banding jobs count) or the Column of every 7th column
// (column: both sides, as a resident top-k query counts). The K-MH
// kernel counts (it holds no kept Counts), as HashCountKMH does.
func BenchmarkScanWide(b *testing.B) {
	sig, err := mhSketch(wideSource(), 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := kmhSketch(wideSource(), 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	sig200, err := mhSketch(wideSource(), 200, 7)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, sc := range []struct {
		name string
		p    Params
		sk   fold.Sketch
	}{
		{"mh/k=64", Params{Algo: fold.MinHash, K: 64, Threshold: 0.5, Delta: 0.2}, fold.Sketch{MH: sig}},
		{"kmh/k=256", Params{Algo: fold.KMinHash, K: 256, Threshold: 0.5, Delta: 0.2}, fold.Sketch{KMH: sk}},
		{"mlsh/l=40", Params{Algo: fold.MinLSH, K: 200, R: 5, L: 40, Seed: 7, Threshold: 0.5, Delta: 0.2}, fold.Sketch{MH: sig200}},
	} {
		ix, err := IndexFor(ctx, sc.p, sc.sk, 1)
		if err != nil {
			b.Fatal(err)
		}
		k, err := ix.Kernel(sc.p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := k.Scan(ctx, nil, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sc.name+"/column", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := 0; c < wideSource().Cols; c += 7 {
					if _, _, err := k.Column(nil, c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
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
	sig, err := mhSketch(webLogMatrix(b).Stream(), 50, 9)
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
	sk, err := kmhSketch(webLogMatrix(b).Stream(), 50, 9)
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
