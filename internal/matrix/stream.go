package matrix

import (
	"errors"
	"fmt"
	"slices"
)

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

// Stream returns a RowSource view of the matrix. A matrix that
// Collect, FromRows or a Builder makes is born with its row-major half;
// one made from columns computes that transpose once, on the first
// Scan, and keeps it.
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
	m.rowMajor = transpose(m.cols, occurrences(m.cols, m.rows))
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

// rangeScanner is a RowSource that can deliver a contiguous row-id
// range more cheaply than a filtered full pass — a file source that
// skip-decodes the prefix and stops after the range, for instance. The
// scale-out executor partitions datasets into such ranges so each
// worker pays decode cost only for its own rows.
type rangeScanner interface {
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
// a rangeScanner, Scan uses its skip-decode path; otherwise it filters
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
	if rs, ok := t.Src.(rangeScanner); ok {
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

// collectChunk is the entries per chunk of Collect's row record (a
// longer row gets a chunk of its own). Fixed chunks keep the entries off
// one growing slice, whose reallocation copies ate most of the gain at
// 17.7M entries. Within that, the size matters little: loading a
// 1M-row × 10k-column ".arows" file with ten ones a row (alternated
// runs of five loads, two cores) took a median 0.33 s at chunks of 2^12
// to 2^16 entries and 0.37 s at 2^18 and 2^20 on a quiet box, and
// 0.47 s at each of 2^12, 2^16 and 2^18 on a busier one. 2^16 entries
// (256 KiB) leaves a chunk's unused tail, under one row, negligible.
const collectChunk = 1 << 16

// Collect materialises a RowSource into a Matrix (one pass). It is the
// inverse of (*Matrix).Stream: the pass records the rows into chunks and
// counts each column's ones, one counting transpose scatters the row ids
// into the columns, and the rows stay as the matrix's row half. A source
// that breaks RowSource's contract — rows not increasing or not below
// NumRows, a row's columns not increasing or not below NumCols — fails
// with an error naming the row.
func Collect(src RowSource) (*Matrix, error) {
	n, m := src.NumRows(), src.NumCols()
	// The pass records the rows' columns back to back, a non-empty row
	// whole in one chunk, and each row's length (0 for a row the source
	// skips); counts grows to the highest column read. Slices for the n
	// rows and the m columns are cut only once the pass has read them: a
	// file header may declare up to 2^31 rows or columns its body lacks.
	var chunks [][]int32
	var lens []int32
	var counts []int
	err := src.Scan(func(row int, cols []int32) error {
		if row < len(lens) || row >= n {
			return fmt.Errorf("matrix: row %d out of order or out of range [0,%d)", row, n)
		}
		prev := int32(-1)
		for _, c := range cols {
			if c <= prev || int(c) >= len(counts) {
				if c <= prev || int(c) >= m {
					return fmt.Errorf("matrix: row %d column %d out of order or out of range [0,%d)", row, c, m)
				}
				counts = slices.Grow(counts, int(c)+1-len(counts))[:c+1]
			}
			prev = c
			counts[c]++
		}
		if len(cols) > 0 {
			last := len(chunks) - 1
			if last < 0 || len(chunks[last])+len(cols) > cap(chunks[last]) {
				chunks = append(chunks, make([]int32, 0, max(collectChunk, len(cols))))
				last++
			}
			chunks[last] = append(chunks[last], cols...)
		}
		for len(lens) < row {
			lens = append(lens, 0)
		}
		lens = append(lens, int32(len(cols)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts = append(counts, make([]int, m-len(counts))...)
	rows := make([][]int32, n)
	var chunk []int32
	for r, l := range lens {
		if int(l) > len(chunk) { // the row opened the next chunk
			chunk, chunks = chunks[0], chunks[1:]
		}
		rows[r], chunk = chunk[:l:l], chunk[l:]
	}
	return withRows(n, transpose(rows, counts), rows), nil
}
