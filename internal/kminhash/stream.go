package kminhash

import (
	"fmt"
	"runtime"

	"assocmine/internal/matrix"
)

// FoldStream folds every row of src into st in ONE sequential pass
// without materialising the matrix, returning the number of shards
// streamed; Finish then yields the sketch values, column sizes and
// estimates a serial FoldRow loop would. The driver is merge-based:
// shards are dealt round-robin to workers (matrix.DistributeShards),
// each worker folds its disjoint row subset into a private FoldState,
// and the states are merged into st in fixed worker order at the end.
// The k smallest hash values of a union of rows are the k smallest of
// the parts' bottom-k multisets, so any worker count and any row
// partition yield the serial sketches exactly; the order-dependent
// Updates counter is exact with one worker and the sum of the per-part
// counters otherwise (deterministic for a fixed worker count, but not
// equal to the serial replay). st may already hold previously folded
// rows (the resume path). workers <= 0 means GOMAXPROCS; one worker
// folds each row straight off the scan (no shard copy, 0 shards), so a
// sequential chunked ingest is bit-identical to one uninterrupted pass.
func FoldStream(src matrix.RowSource, st *FoldState, workers int) (int64, error) {
	if src.NumCols() != st.m {
		return 0, fmt.Errorf("kminhash: source has %d columns, fold state has %d", src.NumCols(), st.m)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return 0, src.Scan(func(row int, cols []int32) error {
			st.FoldRow(row, cols)
			return nil
		})
	}
	parts := make([]*FoldState, workers)
	consumers := make([]func(<-chan *matrix.Shard), workers)
	for w := range parts {
		p, err := NewFoldState(st.m, st.k, st.seed)
		if err != nil {
			return 0, err
		}
		parts[w] = p
		consumers[w] = func(ch <-chan *matrix.Shard) {
			for sh := range ch {
				p.FoldShard(sh)
			}
		}
	}
	shards, err := matrix.DistributeShards(src, consumers)
	if err != nil {
		return shards, err
	}
	for _, p := range parts {
		if err := Merge(st, p); err != nil {
			return shards, err
		}
	}
	return shards, nil
}
