package minhash

import (
	"fmt"
	"runtime"

	"assocmine/internal/matrix"
)

// FoldStream folds every row of src into st — bit for bit what a
// serial FoldRow loop leaves there — in ONE sequential pass over src
// without materialising the matrix, returning the number of shards
// streamed. The driver is merge-based: shards are dealt round-robin to
// workers (matrix.DistributeShards), each worker folds its disjoint row
// subset into a private FoldState, and the states are merged into st in
// fixed worker order at the end. The per-cell minimum over a union of
// rows is the minimum of the per-part minima, so any worker count and
// any row partition yield the serial result exactly. Memory is
// O(workers·k·m) for the states plus a constant number of in-flight
// shards. st may already hold previously folded rows (the resume path).
// workers <= 0 means GOMAXPROCS; one worker folds each row straight
// into st as the scan delivers it — no shard copy, 0 shards streamed.
func FoldStream(src matrix.RowSource, st *FoldState, workers int) (int64, error) {
	if src.NumCols() != st.m {
		return 0, fmt.Errorf("minhash: source has %d columns, fold state has %d", src.NumCols(), st.m)
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
		p := newFoldState(st.m, st.k, st.seed, st.hs)
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
