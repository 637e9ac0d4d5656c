package matrix

import (
	"bytes"
	"io"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/testutil"
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

func BenchmarkWriteRowBinary(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := writeRowBinary(&buf, m.Stream()); err != nil {
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

// benchFile is one fixed encoded file of Zipf rows — 100 000 rows of
// about 12 entries over 16 896 columns, stream-sig's shape — served from
// memory through the FS seam, with its entry count: the decoder alone,
// without the disk.
func benchFile(b *testing.B, write func(io.Writer, RowSource) error, path string) (*FileSource, int) {
	b.Helper()
	rows := testutil.ZipfRows(1, 100_000, 16_896, 12, 1.1)
	entries := 0
	for _, r := range rows {
		entries += len(r)
	}
	var enc bytes.Buffer
	if err := write(&enc, &SliceSource{Cols: 16_896, Rows: rows}); err != nil {
		b.Fatal(err)
	}
	src, err := OpenFileSourceFS(memFS(enc.Bytes()), path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Len()))
	return src, entries
}

// reportPerEntry reports the time per entry of each iteration.
func reportPerEntry(b *testing.B, entries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// benchScan scans benchFile.
func benchScan(b *testing.B, write func(io.Writer, RowSource) error, path string) {
	src, entries := benchFile(b, write, path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Scan(func(int, []int32) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEntry(b, entries)
}

func BenchmarkScanARows(b *testing.B)  { benchScan(b, writeRowBinary, "bench.arows") }
func BenchmarkScanCARows(b *testing.B) { benchScan(b, writeRowCompressed, "bench.carows") }

// BenchmarkCollectARows loads BenchmarkScanARows's file into a Matrix:
// the decode, its floor, plus what Collect adds.
func BenchmarkCollectARows(b *testing.B) {
	src, entries := benchFile(b, writeRowBinary, "bench.arows")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(src); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEntry(b, entries)
}
