package matrix

import "errors"

// RowSource models one-pass, row-at-a-time access to a dataset, the
// access pattern available for large disk-resident tables. The paper's
// phase-1 (signature computation) and phase-3 (candidate pruning)
// algorithms are written against this interface and therefore never
// assume random access to the data; only the small signature structures
// live in "main memory".
type RowSource interface {
	// NumRows returns n.
	NumRows() int
	// NumCols returns m.
	NumCols() int
	// Scan performs one sequential pass, invoking fn once per row in
	// order with the sorted column indices set in that row. The slice
	// passed to fn is only valid for the duration of the call. Scan
	// stops and returns the first error fn returns.
	Scan(fn func(row int, cols []int32) error) error
}

// concurrentSource is a RowSource whose Scan may be called from
// several goroutines at once (in-memory data with no per-scan state):
// Broadcast lets each sink run its own full scan of one instead of
// fanning one stream out, and CanScanConcurrently reads the capability
// for everyone else. Sources with mutable scan state (files,
// CountingSource) must not implement it.
type concurrentSource interface {
	RowSource
	// ConcurrentScan reports whether concurrent Scans are safe.
	ConcurrentScan() bool
}

// ColumnLister is a RowSource with random access to individual column
// row lists — in-memory data stored (or indexed) column-major. The
// packed verification kernel uses it to build bit-columns for exactly
// the candidate-referenced columns without a row scan; sources that can
// only deliver rows sequentially must not implement it.
type ColumnLister interface {
	RowSource
	// ColumnRows returns the sorted row indices of column c. The
	// returned slice must not be modified.
	ColumnRows(c int) []int32
}

// Stream returns a RowSource view of the matrix. The row-major
// transpose is computed once, on first use, and cached.
func (m *Matrix) Stream() RowSource {
	return (*rowStream)(m)
}

type rowStream Matrix

func (s *rowStream) NumRows() int { return s.rows }
func (s *rowStream) NumCols() int { return len(s.cols) }

// ConcurrentScan implements concurrentSource: the matrix is immutable
// and the lazy transpose is guarded by a sync.Once, so overlapping
// Scans are safe.
func (s *rowStream) ConcurrentScan() bool { return true }

// ColumnRows implements ColumnLister from the matrix's native
// column-major storage.
func (s *rowStream) ColumnRows(c int) []int32 { return s.cols[c] }

func (s *rowStream) Scan(fn func(row int, cols []int32) error) error {
	m := (*Matrix)(s)
	m.rowMajorOnce.Do(m.buildRowMajor)
	for r, cs := range m.rowMajor {
		if err := fn(r, cs); err != nil {
			return err
		}
	}
	return nil
}

func (m *Matrix) buildRowMajor() {
	counts := make([]int32, m.rows)
	for _, col := range m.cols {
		for _, r := range col {
			counts[r]++
		}
	}
	// Single backing array, sliced per row, to keep the transpose
	// allocation-light even for millions of rows.
	backing := make([]int32, m.Ones())
	rowsOut := make([][]int32, m.rows)
	off := 0
	for r := 0; r < m.rows; r++ {
		rowsOut[r] = backing[off : off : off+int(counts[r])]
		off += int(counts[r])
	}
	for c, col := range m.cols {
		for _, r := range col {
			rowsOut[r] = append(rowsOut[r], int32(c))
		}
	}
	// Columns were visited in increasing order, so each row is sorted.
	m.rowMajor = rowsOut
}

// CountingSource wraps a RowSource and counts passes and rows
// delivered, so experiments can report I/O-equivalent work.
type CountingSource struct {
	Src    RowSource
	Passes int
	Rows   int64
}

// NumRows implements RowSource.
func (c *CountingSource) NumRows() int { return c.Src.NumRows() }

// NumCols implements RowSource.
func (c *CountingSource) NumCols() int { return c.Src.NumCols() }

// Scan implements RowSource.
func (c *CountingSource) Scan(fn func(row int, cols []int32) error) error {
	c.Passes++
	return c.Src.Scan(func(row int, cols []int32) error {
		c.Rows++
		return fn(row, cols)
	})
}

// SliceSource is a RowSource over in-memory row-major data: Rows[i],
// sorted column indices, is row Base+i — an appended batch whose ids
// continue an ingest's, or with Base 0 the cheapest way to feed
// hand-written fixtures to streaming algorithms in tests.
type SliceSource struct {
	Cols int
	Base int
	Rows [][]int32
}

// NumRows implements RowSource: one past the last row id.
func (s *SliceSource) NumRows() int { return s.Base + len(s.Rows) }

// NumCols implements RowSource.
func (s *SliceSource) NumCols() int { return s.Cols }

// ConcurrentScan implements concurrentSource: the slices are never
// mutated by Scan.
func (s *SliceSource) ConcurrentScan() bool { return true }

// Scan implements RowSource.
func (s *SliceSource) Scan(fn func(row int, cols []int32) error) error {
	for r, cs := range s.Rows {
		if err := fn(s.Base+r, cs); err != nil {
			return err
		}
	}
	return nil
}

// RangeScanner is a RowSource that can deliver a contiguous row-id
// range more cheaply than a filtered full pass — a file source that
// skip-decodes the prefix and stops after the range, for instance. The
// scale-out executor partitions datasets into such ranges so each
// worker pays decode cost only for its own rows.
type RangeScanner interface {
	RowSource
	// ScanRange invokes fn once per row with from <= id < to, in order,
	// with the row's sorted column indices and its ORIGINAL row id.
	// Bounds are clamped to [0, NumRows()].
	ScanRange(from, to int, fn func(row int, cols []int32) error) error
}

// errStopRange aborts the underlying Scan once a RangeSource has
// delivered its last row; it never escapes RangeSource.Scan.
var errStopRange = errors.New("matrix: range complete")

// RangeSource restricts a RowSource to rows with From <= id < To,
// preserving the original row ids — the per-worker view of the
// scale-out executor and, with To = NumRows(), the tail a sliding
// window mines after older rows have expired or an ingest catches up
// on. It deliberately implements ONLY RowSource (no concurrentSource /
// ColumnLister delegation): those fast paths operate on the full
// underlying data and would silently reintroduce out-of-range rows, so
// ranged runs fall back to sequential scans. When the wrapped source is
// a RangeScanner, Scan uses its skip-decode path; otherwise it filters
// a full pass, stopping early after the range.
type RangeSource struct {
	Src  RowSource
	From int // first row id delivered
	To   int // one past the last row id delivered
}

// NumRows implements RowSource. Row ids are preserved, so the nominal
// dimension is unchanged; only Scan's coverage shrinks.
func (t *RangeSource) NumRows() int { return t.Src.NumRows() }

// NumCols implements RowSource.
func (t *RangeSource) NumCols() int { return t.Src.NumCols() }

// Scan implements RowSource, delivering only rows in [From, To).
func (t *RangeSource) Scan(fn func(row int, cols []int32) error) error {
	if rs, ok := t.Src.(RangeScanner); ok {
		return rs.ScanRange(t.From, t.To, fn)
	}
	err := t.Src.Scan(func(row int, cols []int32) error {
		if row < t.From {
			return nil
		}
		if row >= t.To {
			return errStopRange
		}
		return fn(row, cols)
	})
	if err == errStopRange {
		return nil
	}
	return err
}

// Collect materialises a RowSource into a Matrix (one pass). It is the
// inverse of (*Matrix).Stream.
func Collect(src RowSource) (*Matrix, error) {
	b := NewBuilder(src.NumRows(), src.NumCols())
	err := src.Scan(func(row int, cols []int32) error {
		for _, c := range cols {
			b.Set(row, int(c))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}
