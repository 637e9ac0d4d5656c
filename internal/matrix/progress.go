package matrix

// ProgressSource wraps a RowSource and reports scan progress: Tick is
// invoked with (rows delivered, total rows) every Every rows and once
// more when the pass completes. It deliberately does not implement
// concurrentSource — per-scan progress state makes overlapping Scans
// meaningless — so parallel consumers fall back to their single-reader
// strategies, which is exactly where a progress stream is wanted.
type ProgressSource struct {
	Src RowSource
	// Every is the reporting stride in rows; 0 means a default of 4096.
	Every int
	// Tick receives (done, total); nil disables reporting.
	Tick func(done, total int64)
}

// NumRows implements RowSource.
func (p *ProgressSource) NumRows() int { return p.Src.NumRows() }

// NumCols implements RowSource.
func (p *ProgressSource) NumCols() int { return p.Src.NumCols() }

// Scan implements RowSource, forwarding each row before counting it.
func (p *ProgressSource) Scan(fn func(row int, cols []int32) error) error {
	every := p.Every
	if every <= 0 {
		every = 4096
	}
	total := int64(p.Src.NumRows())
	var done int64
	err := p.Src.Scan(func(row int, cols []int32) error {
		if err := fn(row, cols); err != nil {
			return err
		}
		done++
		if p.Tick != nil && done%int64(every) == 0 {
			p.Tick(done, total)
		}
		return nil
	})
	if err == nil && p.Tick != nil {
		p.Tick(done, total)
	}
	return err
}
