package matrix

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/testutil"
)

// builderCollect is the Collect the counting transpose replaced, kept as
// its oracle: every entry appended to its column's list as the rows
// arrive, then each list sorted and deduplicated. It also returns the
// rows as the source delivered them (an undelivered row is empty): the
// row half a collected matrix must scan.
func builderCollect(src RowSource) (*Matrix, [][]int32, error) {
	cols := make([][]int32, src.NumCols())
	rows := make([][]int32, src.NumRows())
	err := src.Scan(func(row int, cs []int32) error {
		for _, c := range cs {
			cols[c] = append(cols[c], int32(row))
		}
		rows[row] = append([]int32(nil), cs...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for c, col := range cols {
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		cols[c] = dedupSorted(col)
	}
	return &Matrix{rows: src.NumRows(), cols: cols}, rows, nil
}

// streamRows returns every row m.Stream().Scan delivers, copied, and
// fails unless they are rows 0..n-1 in order.
func streamRows(t *testing.T, m *Matrix) [][]int32 {
	t.Helper()
	rows := make([][]int32, 0, m.NumRows())
	err := m.Stream().Scan(func(row int, cs []int32) error {
		if row != len(rows) {
			return fmt.Errorf("row %d delivered in place of row %d", row, len(rows))
		}
		rows = append(rows, append([]int32(nil), cs...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != m.NumRows() {
		t.Fatalf("Stream delivered %d of %d rows", len(rows), m.NumRows())
	}
	return rows
}

// checkCollect holds Collect(src) to builderCollect(src): the same
// dimensions and columns, each column a capped list, and the rows of
// Stream().Scan both the rows the source delivered and the transpose of
// the oracle's columns.
func checkCollect(t *testing.T, name string, src RowSource) {
	t.Helper()
	want, delivered, werr := builderCollect(src)
	got, gerr := Collect(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: Collect error %v, the oracle's %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !matricesEqual(got, want) {
		t.Fatalf("%s: Collect's columns differ from the oracle's", name)
	}
	for c := 0; c < got.NumCols(); c++ {
		if col := got.Column(c); cap(col) != len(col) {
			t.Fatalf("%s: column %d has capacity %d past its %d entries", name, c, cap(col), len(col))
		}
	}
	rows := streamRows(t, got)
	if !reflect.DeepEqual(rows, delivered) {
		t.Fatalf("%s: Stream scans other rows than the source delivered", name)
	}
	if !reflect.DeepEqual(rows, streamRows(t, want)) {
		t.Fatalf("%s: Stream scans other rows than the oracle's transpose", name)
	}
}

// unsortedText is a hand-written text file: unsorted rows, duplicate
// columns, an empty row and a blank last line.
const unsortedText = textHeader + "\n6 8\n7 0 3\n\n5 5 5 1\n2 2 0 7 0\n6 4 3 1 0 2\n\n"

// TestCollectVsBuilder holds Collect to its oracle on every committed
// row-format golden (this package's and the CLI's text file), a
// hand-written text file, matrices in three formats and a window of
// each file, a row longer than a record chunk, empty matrices, rows
// that are all empty and a single full column.
func TestCollectVsBuilder(t *testing.T) {
	for _, name := range []string{"golden.arows", "golden.carows"} {
		checkCollect(t, name, testutil.Must(OpenFileSource(filepath.Join("testdata", name))))
	}
	checkCollect(t, "CLI golden.txt", testutil.Must(OpenFileSource(filepath.Join("..", "..", "cmd", "assocfind", "testdata", "golden.txt"))))
	checkCollect(t, "unsorted.txt", testutil.Must(OpenFileSourceFS(memFS(unsortedText), "unsorted.txt")))

	rng := hashing.NewSplitMix64(11)
	for _, m := range []*Matrix{paperExample(), fuzzSeedMatrix(), randomMatrix(rng, 500, 40, 0.1), randomMatrix(rng, 300, 700, 0.3)} {
		checkCollect(t, "stream", m.Stream())
		dir := t.TempDir()
		for _, ext := range []string{".txt", ".arows", ".carows"} {
			path := filepath.Join(dir, "m"+ext)
			if err := SaveFile(path, m); err != nil {
				t.Fatal(err)
			}
			src := testutil.Must(OpenFileSource(path))
			checkCollect(t, ext, src)
			checkCollect(t, ext+" window", &RangeSource{Src: src, From: m.NumRows() / 3, To: m.NumRows() / 2})
		}
	}

	long := make([]int32, collectChunk+7)
	for i := range long {
		long[i] = int32(3*i + 1)
	}
	wide := testutil.ZipfRows(5, 400, 3*len(long)+2, 12, 1.1)
	wide = append(wide[:200], append([][]int32{long}, wide[200:]...)...)
	checkCollect(t, "a row past a chunk", &SliceSource{Cols: 3*len(long) + 2, Rows: wide})

	checkCollect(t, "0x0", &SliceSource{})
	checkCollect(t, "0 rows", &SliceSource{Cols: 5})
	checkCollect(t, "0 columns", &SliceSource{Rows: make([][]int32, 4)})
	checkCollect(t, "empty rows", &SliceSource{Cols: 9, Rows: make([][]int32, 6)})
	full := make([][]int32, 70)
	for r := range full {
		full[r] = []int32{0}
	}
	checkCollect(t, "full column", &SliceSource{Cols: 1, Rows: full})
}

// scriptSource delivers its rows under the ids it is given, whatever
// the RowSource contract says.
type scriptSource struct {
	rows, cols int
	ids        []int
	lists      [][]int32
}

func (s *scriptSource) NumRows() int { return s.rows }
func (s *scriptSource) NumCols() int { return s.cols }
func (s *scriptSource) Scan(fn func(int, []int32) error) error {
	for i, id := range s.ids {
		if err := fn(id, s.lists[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestCollectChecksContract feeds Collect sources that break the
// RowSource contract: each must fail with an error naming the row, not
// panic or build a matrix.
func TestCollectChecksContract(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []int
		cols [][]int32
		row  int
	}{
		{"repeated row", []int{0, 1, 1}, [][]int32{{0}, {1}, {2}}, 1},
		{"row going back", []int{0, 2, 1}, [][]int32{{0}, {1}, {2}}, 1},
		{"negative row", []int{-1}, [][]int32{{0}}, -1},
		{"row past NumRows", []int{0, 4}, [][]int32{{0}, {1}}, 4},
		{"column past NumCols", []int{0, 1}, [][]int32{{0}, {1, 3}}, 1},
		{"negative column", []int{0, 2}, [][]int32{{0}, {-1, 2}}, 2},
		{"unsorted columns", []int{0, 3}, [][]int32{{0}, {2, 1}}, 3},
		{"duplicate column", []int{2}, [][]int32{{1, 1}}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := Collect(&scriptSource{rows: 4, cols: 3, ids: c.ids, lists: c.cols})
			if err == nil {
				t.Fatalf("Collect built a %dx%d matrix", m.NumRows(), m.NumCols())
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("row %d ", c.row)) {
				t.Fatalf("error %q does not name row %d", err, c.row)
			}
		})
	}
}

// TestBuiltMatricesScanTheirRows holds the constructors that are born
// with a row half — FromRows and Builder, whatever the order and
// multiplicity of their input — to New over the columns read straight
// off the input, whose row half comes from its first scan; FromRows
// must leave its input as it was.
func TestBuiltMatricesScanTheirRows(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	const n, m = 90, 30
	rows := make([][]int32, n)
	b := NewBuilder(n, m)
	for i := 0; i < 4*n*m/10; i++ {
		r, c := rng.Intn(n), rng.Intn(m)
		rows[r] = append(rows[r], int32(c))
		b.Set(r, c)
	}
	input := make([][]int32, n)
	for r := range rows {
		input[r] = append([]int32(nil), rows[r]...)
	}
	fromRows := testutil.Must(FromRows(m, rows))
	if !reflect.DeepEqual(rows, input) {
		t.Fatal("FromRows modified its input")
	}
	cols := make([][]int32, m)
	for c := range cols {
		for r := range rows {
			if slices.Contains(rows[r], int32(c)) {
				cols[c] = append(cols[c], int32(r))
			}
		}
	}
	want := testutil.Must(New(n, cols))
	for name, got := range map[string]*Matrix{"FromRows": fromRows, "Builder": b.Build()} {
		if !matricesEqual(got, want) {
			t.Fatalf("%s: columns differ", name)
		}
		if !reflect.DeepEqual(streamRows(t, got), streamRows(t, want)) {
			t.Fatalf("%s: rows differ from the transpose of its columns", name)
		}
	}
}

// TestCollectAllocatesWhatItReads: a header may declare up to 2^31 rows
// or columns that its body lacks; a load fails with the decode error
// before it allocates for them (at 24 B a row, 8 B a column count and
// 24 B a column, 384, 128 and 384 MiB here).
func TestCollectAllocatesWhatItReads(t *testing.T) {
	collect := func(header []uint64, body []uint64) func() error {
		src := testutil.Must(OpenFileSourceFS(memFS(rowBinary("ARW1", header, body)), "h.arows"))
		return func() error { _, err := Collect(src); return err }
	}
	cases := []struct {
		name string
		load func() error
		want string
	}{
		{"arows 2^24 rows, one read", collect([]uint64{1 << 24, 1}, []uint64{1, 0}), "row 1 "},
		{"arows 2^24 columns, no row", collect([]uint64{1, 1 << 24}, nil), "row 0 "},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.load()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("%s: allocated %d MiB before the decode error", c.name, grew>>20)
		}
	}
}
