// Package matrix implements the sparse 0/1 matrix substrate the paper's
// algorithms run on: a column-major in-memory representation for exact
// set arithmetic, a row-stream abstraction modelling one-pass access to
// disk-resident data, and text/binary codecs.
//
// Rows are baskets (tuples, client IPs, documents); columns are
// attributes (items, URLs, words). C_i denotes the set of rows with a 1
// in column i; the density of column i is |C_i|/n.
package matrix

import (
	"fmt"
	"sort"
	"sync"
)

// Matrix is a sparse boolean matrix stored column-major: for each
// column, the sorted list of row indices containing a 1. Its row-major
// half, which Stream scans, is the transpose of the columns: a matrix
// that Collect, FromRows or a Builder makes is born with it, since
// building the columns computed it; one made from columns (New, the
// column binary) computes it on its first scan. A Matrix is
// immutable after construction and safe for concurrent readers.
type Matrix struct {
	rows int
	cols [][]int32

	rowMajorOnce sync.Once
	rowMajor     [][]int32
}

// New constructs a Matrix with the given row count and column lists.
// Each column must be a strictly increasing list of row indices in
// [0, rows). The column slices are retained, not copied.
func New(rows int, cols [][]int32) (*Matrix, error) {
	if rows < 0 {
		return nil, fmt.Errorf("matrix: negative row count %d", rows)
	}
	for c, col := range cols {
		for i, r := range col {
			if r < 0 || int(r) >= rows {
				return nil, fmt.Errorf("matrix: column %d row %d out of range [0,%d)", c, r, rows)
			}
			if i > 0 && col[i-1] >= r {
				return nil, fmt.Errorf("matrix: column %d not strictly increasing at position %d", c, i)
			}
		}
	}
	return &Matrix{rows: rows, cols: cols}, nil
}

// Builder accumulates 1-entries in any order and produces a Matrix.
type Builder struct {
	rows int
	cols [][]int32
}

// NewBuilder returns a Builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: make([][]int32, cols)}
}

// Set records a 1 at (row, col). Duplicate entries are permitted and
// collapse at Build time. Set panics on out-of-range coordinates.
func (b *Builder) Set(row, col int) {
	if row < 0 || row >= b.rows {
		panic(fmt.Sprintf("matrix: Set row %d out of range [0,%d)", row, b.rows))
	}
	if col < 0 || col >= len(b.cols) {
		panic(fmt.Sprintf("matrix: Set col %d out of range [0,%d)", col, len(b.cols)))
	}
	b.cols[col] = append(b.cols[col], int32(row))
}

// Build sorts and deduplicates the accumulated entries and returns the
// Matrix. The Builder must not be used afterwards.
func (b *Builder) Build() *Matrix {
	// Two counting transposes sort the entries, Set's order whatever it
	// was: the first visits the columns in order, so each row comes out
	// sorted with its duplicates adjacent, dropped there; the second
	// gives the sorted, distinct columns, and the rows stay as the row
	// half.
	rows := transpose(b.cols, occurrences(b.cols, b.rows))
	for r, row := range rows {
		rows[r] = dedupSorted(row)
	}
	m := withRows(b.rows, transpose(rows, occurrences(rows, len(b.cols))), rows)
	b.cols = nil
	return m
}

// withRows is the matrix of cols whose row half is rows, the
// transpose its construction computed.
func withRows(n int, cols, rows [][]int32) *Matrix {
	m := &Matrix{rows: n, cols: cols}
	m.rowMajorOnce.Do(func() { m.rowMajor = rows })
	return m
}

// transpose is the counting sort between a 0/1 matrix's two halves:
// lines[i] lists the indices set in line i, counts[j] is the number of
// lines that hold j, and line j of the result lists the i whose lines
// hold j, increasing (once per occurrence). The result's lines are
// capped sub-slices of one exactly sized slab, so an append to one line
// can only reallocate that line. counts is used up as the scatter's
// cursors.
func transpose(lines [][]int32, counts []int) [][]int32 {
	total := 0
	for j, n := range counts {
		counts[j] = total
		total += n
	}
	slab := make([]int32, total)
	for i, l := range lines {
		for _, j := range l {
			slab[counts[j]] = int32(i)
			counts[j]++
		}
	}
	// Each cursor now ends its line, where the next line starts.
	out := make([][]int32, len(counts))
	start := 0
	for j, end := range counts {
		out[j] = slab[start:end:end]
		start = end
	}
	return out
}

// occurrences returns, for each j in [0, width), the number of lines
// that hold j: transpose's counts.
func occurrences(lines [][]int32, width int) []int {
	counts := make([]int, width)
	for _, l := range lines {
		for _, j := range l {
			counts[j]++
		}
	}
	return counts
}

// SortDedup sorts s and drops its duplicates, in place: any list of
// indices made the sorted set that rows and columns are everywhere.
func SortDedup(s []int32) []int32 {
	insertionSortInt32(s)
	return dedupSorted(s)
}

// insertionSortInt32 sorts s: by insertion up to 64 entries, by a merge
// sort above. On random lists of 10-200 entries, a row's usual length,
// it took 5-40 % less time than slices.Sort (one core, Go 1.24).
func insertionSortInt32(s []int32) {
	if len(s) > 64 {
		mergeSortInt32(s, make([]int32, len(s)))
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func mergeSortInt32(s, buf []int32) {
	if len(s) <= 32 {
		insertionSortInt32(s)
		return
	}
	mid := len(s) / 2
	mergeSortInt32(s[:mid], buf[:mid])
	mergeSortInt32(s[mid:], buf[mid:])
	copy(buf, s[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < len(s) {
		if buf[i] <= s[j] {
			s[k] = buf[i]
			i++
		} else {
			s[k] = s[j]
			j++
		}
		k++
	}
	copy(s[k:], buf[i:mid])
}

func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// FromRows builds a Matrix from row-major data: rows[r] lists the
// column indices set in row r (in any order, duplicates allowed). The
// rows are copied, never modified.
func FromRows(numCols int, rows [][]int32) (*Matrix, error) {
	sets := make([][]int32, len(rows))
	for r, cs := range rows {
		for _, c := range cs {
			if c < 0 || int(c) >= numCols {
				return nil, fmt.Errorf("matrix: row %d column %d out of range [0,%d)", r, c, numCols)
			}
		}
		sets[r] = SortDedup(append([]int32(nil), cs...))
	}
	return withRows(len(rows), transpose(sets, occurrences(sets, numCols)), sets), nil
}

// NumRows returns n, the number of rows.
func (m *Matrix) NumRows() int { return m.rows }

// NumCols returns the number of columns.
func (m *Matrix) NumCols() int { return len(m.cols) }

// Column returns the sorted row indices of column c. The returned slice
// must not be modified.
func (m *Matrix) Column(c int) []int32 { return m.cols[c] }

// ColumnSize returns |C_c|, the number of 1s in column c.
func (m *Matrix) ColumnSize(c int) int { return len(m.cols[c]) }

// Ones returns |M|, the total number of 1-entries.
func (m *Matrix) Ones() int {
	total := 0
	for _, col := range m.cols {
		total += len(col)
	}
	return total
}

// Density returns |C_c| / n for column c; 0 when the matrix has no rows.
func (m *Matrix) Density(c int) float64 {
	if m.rows == 0 {
		return 0
	}
	return float64(len(m.cols[c])) / float64(m.rows)
}

// IntersectSize returns |C_i ∩ C_j| by merging the two sorted columns.
func (m *Matrix) IntersectSize(i, j int) int {
	return intersectSortedSize(m.cols[i], m.cols[j])
}

// Similarity returns the Jaccard similarity S(c_i, c_j) =
// |C_i ∩ C_j| / |C_i ∪ C_j|. Two empty columns have similarity 0.
func (m *Matrix) Similarity(i, j int) float64 {
	inter := m.IntersectSize(i, j)
	union := len(m.cols[i]) + len(m.cols[j]) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func intersectSortedSize(a, b []int32) int {
	// Galloping merge: when one column is much shorter, binary-search
	// the longer one. This mirrors the asymmetry of real data where
	// column sizes span orders of magnitude.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b)/(len(a)+1) >= 8 {
		n := 0
		lo := 0
		for _, x := range a {
			lo += sort.Search(len(b)-lo, func(k int) bool { return b[lo+k] >= x })
			if lo < len(b) && b[lo] == x {
				n++
				lo++
			}
			if lo == len(b) {
				break
			}
		}
		return n
	}
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
