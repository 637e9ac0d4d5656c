// Package matrix implements the sparse 0/1 matrix substrate the paper's
// algorithms run on: a column-major in-memory representation for exact
// set arithmetic, a row-stream abstraction modelling one-pass access to
// disk-resident data, OR-folding for Hamming-LSH, column composition
// for the rule extensions of Section 7, and text/binary codecs.
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
// column, the sorted list of row indices containing a 1. A Matrix is
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

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(rows int, cols [][]int32) *Matrix {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
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
	for c, col := range b.cols {
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		b.cols[c] = dedupSorted(col)
	}
	m := &Matrix{rows: b.rows, cols: b.cols}
	b.cols = nil
	return m
}

// SortDedup sorts s and drops its duplicates, in place: any list of
// indices made the sorted set that rows and columns are everywhere.
func SortDedup(s []int32) []int32 {
	insertionSortInt32(s)
	return dedupSorted(s)
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
// column indices set in row r (in any order, duplicates allowed).
func FromRows(numCols int, rows [][]int32) (*Matrix, error) {
	b := NewBuilder(len(rows), numCols)
	for r, cs := range rows {
		for _, c := range cs {
			if c < 0 || int(c) >= numCols {
				return nil, fmt.Errorf("matrix: row %d column %d out of range [0,%d)", r, c, numCols)
			}
			b.cols[c] = append(b.cols[c], int32(r))
		}
	}
	return b.Build(), nil
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

// UnionSize returns |C_i ∪ C_j|.
func (m *Matrix) UnionSize(i, j int) int {
	return len(m.cols[i]) + len(m.cols[j]) - m.IntersectSize(i, j)
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

// Confidence returns Conf(c_i => c_j) = |C_i ∩ C_j| / |C_i|, the
// asymmetric measure of Section 1; 0 when C_i is empty.
func (m *Matrix) Confidence(i, j int) float64 {
	if len(m.cols[i]) == 0 {
		return 0
	}
	return float64(m.IntersectSize(i, j)) / float64(len(m.cols[i]))
}

// HammingDistance returns d_H(c_i, c_j), the number of rows on which
// the two columns differ. Lemma 3 relates it to similarity:
// S = (|C_i|+|C_j|-d_H) / (|C_i|+|C_j|+d_H).
func (m *Matrix) HammingDistance(i, j int) int {
	inter := m.IntersectSize(i, j)
	return len(m.cols[i]) + len(m.cols[j]) - 2*inter
}

// OrColumns returns the sorted row set of the induced column c_i ∨ c_j
// (Section 7). The result is freshly allocated.
func OrColumns(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// AndColumns returns the sorted row set of the induced column c_i ∧ c_j.
func AndColumns(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
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

// WithOrColumn returns a new Matrix that shares this matrix's columns
// and appends the induced column c_i ∨ c_j at the end, returning its
// index. Used by the Section 7 extensions.
func (m *Matrix) WithOrColumn(i, j int) (*Matrix, int) {
	cols := make([][]int32, len(m.cols), len(m.cols)+1)
	copy(cols, m.cols)
	cols = append(cols, OrColumns(m.cols[i], m.cols[j]))
	return &Matrix{rows: m.rows, cols: cols}, len(cols) - 1
}
