package matrix

import "context"

// WithContext returns a RowSource whose Scan aborts with ctx.Err() at
// the next row boundary once ctx is cancelled. A nil ctx returns src
// unchanged. The wrapper preserves the in-memory capabilities of src
// (concurrentSource and ColumnLister pass through; a column list is
// handed over as it is, a reader of lists checks the context itself),
// so strategy selection in the pipeline is unaffected; it deliberately
// does not pass ByteCounter or the other accounting probes through —
// callers keep a reference to the unwrapped source for those.
func WithContext(ctx context.Context, src RowSource) RowSource {
	if ctx == nil {
		return src
	}
	c := ctxSource{ctx: ctx, src: src}
	if _, ok := src.(ColumnLister); ok {
		return &ctxLister{c}
	}
	return &c
}

// ctxLister is a ctxSource over a source with column lists.
type ctxLister struct{ ctxSource }

// ColumnRows implements ColumnLister by delegation.
func (c *ctxLister) ColumnRows(col int) []int32 { return c.src.(ColumnLister).ColumnRows(col) }

// ctxSource checks the context between rows. ctx.Err() is an atomic
// load, negligible next to per-row work, so the check runs every row
// and cancellation latency is one row.
type ctxSource struct {
	ctx context.Context
	src RowSource
}

// NumRows implements RowSource.
func (c *ctxSource) NumRows() int { return c.src.NumRows() }

// NumCols implements RowSource.
func (c *ctxSource) NumCols() int { return c.src.NumCols() }

// ConcurrentScan implements concurrentSource by delegation; the
// wrapper itself is stateless per scan.
func (c *ctxSource) ConcurrentScan() bool { return CanScanConcurrently(c.src) }

// Scan implements RowSource.
func (c *ctxSource) Scan(fn func(row int, cols []int32) error) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.src.Scan(func(row int, cols []int32) error {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		return fn(row, cols)
	})
}
