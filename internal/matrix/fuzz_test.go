package matrix

import (
	"bytes"
	"testing"
)

// Fuzz targets for the codecs: any input must either parse into a
// valid matrix or return an error — never panic — and whatever parses
// must re-encode and re-parse identically.

func FuzzReadText(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteText(&seed, paperExample())
	f.Add(seed.Bytes())
	f.Add([]byte(""))
	f.Add([]byte(textHeader + "\n2 2\n0 1\n\n"))
	f.Add([]byte(textHeader + "\n-1 -1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, m); err != nil {
			t.Fatalf("re-encode of parsed matrix failed: %v", err)
		}
		m2, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !matricesEqual(m, m2) {
			t.Fatal("text codec not idempotent")
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, paperExample())
	f.Add(seed.Bytes())
	f.Add([]byte("AMX1"))
	f.Add([]byte("AMX1\x02\x02\x01\x00\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		m2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !matricesEqual(m, m2) {
			t.Fatal("binary codec not idempotent")
		}
	})
}

func FuzzCArowsRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteRowCompressed(&seed, paperExample().Stream())
	f.Add(seed.Bytes())
	// A multi-shard matrix (rows beyond one 64-row shard) with both
	// sparse Rice rows and dense bitmap rows.
	var wide bytes.Buffer
	_ = WriteRowCompressed(&wide, fuzzSeedMatrix().Stream())
	f.Add(wide.Bytes())
	// Truncations at and around the shard-boundary rows.
	for _, cut := range []int{4, 6, len(wide.Bytes()) / 2, len(wide.Bytes()) - 1} {
		if cut < wide.Len() {
			f.Add(wide.Bytes()[:cut])
		}
	}
	f.Add([]byte("CRW1"))
	f.Add([]byte("CRWX\x01\x01"))
	f.Add(carows("CRW1", []uint64{1, 4}, riceRow(1<<6|1<<5, 0, nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseCArows(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRowCompressed(&out, m.Stream()); err != nil {
			t.Fatalf("re-encode of parsed matrix failed: %v", err)
		}
		m2, err := parseCArows(out.Bytes())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !matricesEqual(m, m2) {
			t.Fatal("compressed row codec not idempotent")
		}
	})
}

func FuzzReadNamedTransactions(f *testing.F) {
	f.Add("milk bread\nbeer milk\n")
	f.Add("# comment\n\n")
	f.Add("a a a\n")
	f.Fuzz(func(t *testing.T, data string) {
		m, names, err := ReadNamedTransactions(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		if len(names) != m.NumCols() {
			t.Fatalf("%d names for %d columns", len(names), m.NumCols())
		}
	})
}

// FuzzScanRange: arbitrary bytes under each streaming format and an
// arbitrary row range must never panic, and whenever a full Scan of
// the bytes succeeds, ScanRange delivers exactly Scan's rows with
// from <= id < to — the skip path may check less than the decode
// path, never frame the stream differently.
func FuzzScanRange(f *testing.F) {
	m := fuzzSeedMatrix()
	var text, arows, carows bytes.Buffer
	_ = WriteText(&text, m)
	_ = WriteRowBinary(&arows, m.Stream())
	_ = WriteRowCompressed(&carows, m.Stream())
	for format, enc := range [][]byte{text.Bytes(), arows.Bytes(), carows.Bytes()} {
		f.Add(enc, uint8(format), 0, 130)
		f.Add(enc, uint8(format), 64, 65)
		f.Add(enc, uint8(format), 100, 1<<40)
		f.Add(enc[:len(enc)/2], uint8(format), 20, 90)
	}
	f.Add([]byte(textHeader+"\n3 4\n3 1 1\n\n0 2\n"), uint8(0), 1, 3)
	f.Fuzz(func(t *testing.T, data []byte, format uint8, from, to int) {
		ext := []string{".txt", ".arows", ".carows"}[format%3]
		fs, err := OpenFileSourceFS(memFS(data), "mem"+ext)
		if err != nil {
			return
		}
		var all, got []scannedRow
		collect := func(into *[]scannedRow) func(int, []int32) error {
			return func(row int, cols []int32) error {
				*into = append(*into, scannedRow{row, append([]int32(nil), cols...)})
				return nil
			}
		}
		rangeErr := fs.ScanRange(from, to, collect(&got))
		if fs.Scan(collect(&all)) != nil {
			return
		}
		if rangeErr != nil {
			t.Fatalf("%s: Scan succeeded, ScanRange(%d, %d) failed: %v", ext, from, to, rangeErr)
		}
		var want []scannedRow
		for _, r := range all {
			if from <= r.row && r.row < to {
				want = append(want, r)
			}
		}
		if !rowsEqual(got, want) {
			t.Fatalf("%s: ScanRange(%d, %d) delivered %d rows, Scan has %d in range (or content differs)", ext, from, to, len(got), len(want))
		}
	})
}
