package minhash

import (
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

func benchMatrix(b *testing.B, rows, cols int, density float64) *matrix.Matrix {
	b.Helper()
	rng := hashing.NewSplitMix64(1)
	mb := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				mb.Set(r, c)
			}
		}
	}
	return mb.Build()
}

func BenchmarkCompute(b *testing.B) {
	m := benchMatrix(b, 5000, 500, 0.02)
	for _, k := range []int{10, 50, 100} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compute(m.Stream(), k, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimate(b *testing.B) {
	m := benchMatrix(b, 2000, 100, 0.05)
	sig, err := compute(m.Stream(), 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sig.Estimate(i%100, (i+1)%100)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFoldRow folds a fixed shard of Zipf(1.1) rows — 100 000 rows
// of about 12 entries over 16 896 columns, stream-sig's shape — into a
// fresh k = 64 state: the MH fold alone, without decode. ns/entry-hash
// is the figure stream-sig traces as minhash.fold_ns_per_entry_hash.
func BenchmarkFoldRow(b *testing.B) {
	const rows, cols, k = 100_000, 16_896, 64
	data := testutil.ZipfRows(1, rows, cols, 12, 1.1)
	entries := 0
	for _, row := range data {
		entries += len(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := NewFoldState(cols, k, 7)
		if err != nil {
			b.Fatal(err)
		}
		for r, row := range data {
			st.FoldRow(r, row)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries*k), "ns/entry-hash")
}
