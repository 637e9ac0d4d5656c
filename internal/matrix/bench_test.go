package matrix

import (
	"bytes"
	"testing"

	"assocmine/internal/hashing"
)

func benchMatrix(b *testing.B) *Matrix {
	b.Helper()
	rng := hashing.NewSplitMix64(1)
	return randomMatrix(rng, 10000, 300, 0.02)
}

func BenchmarkStreamScan(b *testing.B) {
	m := benchMatrix(b)
	src := m.Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		_ = src.Scan(func(row int, cols []int32) error {
			total += len(cols)
			return nil
		})
	}
}

func BenchmarkIntersectSize(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.IntersectSize(i%300, (i+7)%300)
	}
}

func BenchmarkFoldRows(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.FoldRows(hashing.NewSplitMix64(uint64(i)))
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteRowBinary(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteRowBinary(&buf, m.Stream()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTailRange times the view a sliding window and an ingest
// catch-up read: the last 1 % of a 20 000 × 4 000 file at density 0.005,
// every row before it crossed without being decoded.
func BenchmarkTailRange(b *testing.B) {
	const rows = 20_000
	m := randomMatrix(hashing.NewSplitMix64(1), rows, 4_000, 0.005)
	dir := b.TempDir()
	for _, ext := range []string{".arows", ".carows"} {
		path := dir + "/data" + ext
		if err := SaveFile(path, m); err != nil {
			b.Fatal(err)
		}
		fs, err := OpenFileSource(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ext, func(b *testing.B) {
			tail := &RangeSource{Src: fs, From: rows - rows/100, To: rows}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := tail.Scan(func(int, []int32) error { n++; return nil }); err != nil || n != rows/100 {
					b.Fatalf("%d rows, err %v", n, err)
				}
			}
		})
	}
}
