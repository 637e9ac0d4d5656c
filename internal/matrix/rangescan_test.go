package matrix

import (
	"fmt"
	"path/filepath"
	"testing"

	"assocmine/internal/hashing"
)

// collectRange gathers (row, cols) pairs delivered by a scan for
// comparison.
type scannedRow struct {
	row  int
	cols []int32
}

func collectScanRange(t *testing.T, src *FileSource, from, to int) []scannedRow {
	t.Helper()
	var got []scannedRow
	err := src.ScanRange(from, to, func(row int, cols []int32) error {
		got = append(got, scannedRow{row, append([]int32(nil), cols...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ScanRange(%d, %d): %v", from, to, err)
	}
	return got
}

func collectFiltered(t *testing.T, src RowSource, from, to int) []scannedRow {
	t.Helper()
	var got []scannedRow
	err := src.Scan(func(row int, cols []int32) error {
		if row >= from && row < to {
			got = append(got, scannedRow{row, append([]int32(nil), cols...)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func rowsEqual(a, b []scannedRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].row != b[i].row || len(a[i].cols) != len(b[i].cols) {
			return false
		}
		for j := range a[i].cols {
			if a[i].cols[j] != b[i].cols[j] {
				return false
			}
		}
	}
	return true
}

// TestScanRangeFormats proves ScanRange delivers exactly the rows a
// filtered full Scan would, with original ids, across all three file
// formats and a spread of ranges including empty and clamped ones.
func TestScanRangeFormats(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	m := randomMatrix(rng, 211, 40, 0.12)
	dir := t.TempDir()
	paths := map[string]string{
		"text":   filepath.Join(dir, "d.txt"),
		"arows":  filepath.Join(dir, "d.arows"),
		"carows": filepath.Join(dir, "d.carows"),
	}
	if err := SaveFile(paths["text"], m); err != nil {
		t.Fatal(err)
	}
	if err := SaveRowBinary(paths["arows"], m.Stream()); err != nil {
		t.Fatal(err)
	}
	if err := SaveRowCompressed(paths["carows"], m.Stream()); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{
		{0, 211}, {0, 1}, {210, 211}, {50, 130}, {0, 0}, {97, 97},
		{-5, 10}, {200, 999}, {211, 211}, {1, 210},
	}
	for name, path := range paths {
		fs, err := OpenFileSource(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range ranges {
			t.Run(fmt.Sprintf("%s/%d-%d", name, r[0], r[1]), func(t *testing.T) {
				want := collectFiltered(t, fs, r[0], r[1])
				got := collectScanRange(t, fs, r[0], r[1])
				if !rowsEqual(got, want) {
					t.Errorf("ScanRange(%d, %d) = %d rows, want %d (or content mismatch)",
						r[0], r[1], len(got), len(want))
				}
			})
		}
	}
}

// TestScanRangeDenseBitmapRows exercises the ".carows" bitmap fallback
// skip path: rows dense enough that the writer chooses mode 1.
func TestScanRangeDenseBitmapRows(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	m := randomMatrix(rng, 64, 96, 0.7)
	path := filepath.Join(t.TempDir(), "dense.carows")
	if err := SaveRowCompressed(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	want := collectFiltered(t, fs, 30, 50)
	got := collectScanRange(t, fs, 30, 50)
	if !rowsEqual(got, want) {
		t.Error("dense bitmap skip path mismatch")
	}
}

// TestRangeSource proves the generic wrapper filters a plain RowSource
// (early-stopping) and routes rangeScanner sources to their skip path,
// both preserving original row ids.
func TestRangeSource(t *testing.T) {
	src := &SliceSource{Cols: 10, Rows: [][]int32{
		{0, 3}, {1}, {2, 5, 9}, {}, {4}, {0, 9},
	}}
	rs := &RangeSource{Src: src, From: 2, To: 5}
	if rs.NumRows() != 6 || rs.NumCols() != 10 {
		t.Fatalf("dims %dx%d", rs.NumRows(), rs.NumCols())
	}
	var ids []int
	err := rs.Scan(func(row int, cols []int32) error {
		ids = append(ids, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 {
		t.Errorf("ids = %v, want [2 3 4]", ids)
	}

	rng := hashing.NewSplitMix64(3)
	m := randomMatrix(rng, 80, 25, 0.15)
	path := filepath.Join(t.TempDir(), "d.arows")
	if err := SaveRowBinary(path, m.Stream()); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	want := collectFiltered(t, fs, 20, 60)
	var got []scannedRow
	err = (&RangeSource{Src: fs, From: 20, To: 60}).Scan(func(row int, cols []int32) error {
		got = append(got, scannedRow{row, append([]int32(nil), cols...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, want) {
		t.Error("RangeSource over FileSource mismatch")
	}
}
