// Package assocmine finds highly-similar column pairs and
// high-confidence association rules in sparse boolean data without any
// support requirement, implementing the algorithms of Cohen, Datar,
// Fujiwara, Gionis, Indyk, Motwani, Ullman and Yang, "Finding
// Interesting Associations without Support Pruning" (ICDE 2000).
//
// The data model is a sparse 0/1 matrix: rows are baskets (transactions,
// client IPs, documents) and columns are attributes (items, URLs,
// words). The similarity of two columns is the Jaccard coefficient
// |C_i ∩ C_j| / |C_i ∪ C_j|; the confidence of c_i => c_j is
// |C_i ∩ C_j| / |C_i|.
//
// Four signature-based algorithms are provided — MinHash, KMinHash,
// MinLSH and HammingLSH — plus the classic a-priori baseline and exact
// brute force. All follow the paper's three-phase template: compute
// small per-column signatures in one pass, generate candidate pairs in
// memory, then verify candidates exactly in a second pass.
//
// Quick start:
//
//	data, _ := assocmine.NewDatasetFromRows(4, [][]int{{0, 1}, {0, 1}, {1, 2}, {2}})
//	res, _ := assocmine.SimilarPairs(data, assocmine.Config{
//		Algorithm: assocmine.MinLSH,
//		Threshold: 0.5,
//	})
//	for _, p := range res.Pairs {
//		fmt.Printf("columns %d and %d: similarity %.2f\n", p.I, p.J, p.Similarity)
//	}
package assocmine

import (
	"fmt"
	"os"

	"assocmine/internal/matrix"
)

// Dataset is an immutable sparse boolean matrix. Rows are baskets,
// columns are attributes. A Dataset is safe for concurrent use.
type Dataset struct {
	m *matrix.Matrix
}

// NewDatasetFromRows builds a Dataset from row-major data: rows[r]
// lists the column indices set in row r (any order, duplicates
// collapse).
func NewDatasetFromRows(numCols int, rows [][]int) (*Dataset, error) {
	conv := make([][]int32, len(rows))
	for r, cs := range rows {
		row := make([]int32, len(cs))
		for i, c := range cs {
			if c < 0 || c >= numCols {
				return nil, fmt.Errorf("assocmine: row %d column %d out of range [0,%d)", r, c, numCols)
			}
			row[i] = int32(c)
		}
		conv[r] = row
	}
	m, err := matrix.FromRows(numCols, conv)
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

// NewDatasetFromColumns builds a Dataset column-major: cols[c] lists
// the row indices set in column c (must be strictly increasing).
func NewDatasetFromColumns(numRows int, cols [][]int) (*Dataset, error) {
	conv := make([][]int32, len(cols))
	for c, rs := range cols {
		col := make([]int32, len(rs))
		for i, r := range rs {
			col[i] = int32(r)
		}
		conv[c] = col
	}
	m, err := matrix.New(numRows, conv)
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

// LoadDataset reads a dataset file written by Save into memory, in one
// pass of the FileSource that OpenFileDataset streams: ".arows" and
// ".carows" are the row binaries, anything else the text format. Decode
// failures are *FileError values naming the path and byte offset.
func LoadDataset(path string) (*Dataset, error) {
	src, err := matrix.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	m, err := matrix.Collect(src)
	if err != nil {
		return nil, err
	}
	return &Dataset{m: m}, nil
}

// Save writes the dataset to path in the format its suffix names, the
// one LoadDataset and OpenFileDataset read: ".arows" is the row-major
// streaming binary, the most compact uncompressed input; ".carows" its
// compressed variant (Rice-coded gap deltas, the Rice parameter chosen
// per row), which streams exactly like ".arows" while reading fewer
// bytes from disk; anything else the text transaction format.
func (d *Dataset) Save(path string) error {
	return matrix.SaveFile(path, d.m)
}

// LoadTransactions parses the classic market-basket interchange format
// (one transaction per line, whitespace-separated item names; '#'
// starts a comment). It returns the dataset and the item name of each
// column.
func LoadTransactions(path string) (*Dataset, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, names, err := matrix.ReadNamedTransactions(f)
	if err != nil {
		return nil, nil, err
	}
	return &Dataset{m: m}, names, nil
}

// NumRows returns the number of rows (baskets).
func (d *Dataset) NumRows() int { return d.m.NumRows() }

// NumCols returns the number of columns (attributes).
func (d *Dataset) NumCols() int { return d.m.NumCols() }

// Ones returns the number of 1-entries.
func (d *Dataset) Ones() int { return d.m.Ones() }

// ColumnSize returns the number of rows containing column c.
func (d *Dataset) ColumnSize(c int) int { return d.m.ColumnSize(c) }

// Density returns ColumnSize(c) / NumRows.
func (d *Dataset) Density(c int) float64 { return d.m.Density(c) }

// Similarity returns the exact Jaccard similarity of columns i and j.
func (d *Dataset) Similarity(i, j int) float64 { return d.m.Similarity(i, j) }

// Matrix exposes the underlying matrix to sibling internal packages.
// It is deliberately unexported-by-convention: external users should
// not need it, but the internal evaluation harness reuses this public
// runner layer.
func (d *Dataset) Matrix() *matrix.Matrix { return d.m }

// WrapMatrix adopts an existing internal matrix as a Dataset. Intended
// for the internal generators and harnesses.
func WrapMatrix(m *matrix.Matrix) *Dataset { return &Dataset{m: m} }
