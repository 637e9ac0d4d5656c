// Parallel verification: the candidate list is sharded into disjoint
// contiguous slices, one per worker, each worker maintaining its own
// pairsOf index and either/both/lastRow counters. Because every
// candidate's counters live with exactly one worker, no synchronisation
// is needed on the counting hot path and the per-shard results are the
// same bytes the serial pass would produce for that slice; merging is
// concatenation in shard order plus summing Touches.
//
// Two data-delivery strategies cover the two operating regimes:
//
//   - In-memory sources (matrix.ConcurrentSource): every worker runs
//     its own full Scan. Scans are cheap relative to counter updates,
//     and there is zero copying or channel traffic.
//   - Streaming sources (files, CountingSource): a single reader
//     performs the one sequential pass the disk-resident setting
//     allows, copying rows into batches that are fanned out to every
//     worker. The source still sees exactly one Scan.
package verify

import (
	"runtime"
	"sync"
	"sync/atomic"

	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// minShardCandidates is the smallest candidate shard worth a goroutine;
// below it the scan itself dominates and workers are trimmed.
const minShardCandidates = 32

// shardWorkers resolves a worker count against n candidates: negative
// means GOMAXPROCS, and shards smaller than minShardCandidates are not
// worth a goroutine, so the count is trimmed to what n can feed (at
// least 1).
func shardWorkers(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, (n+minShardCandidates-1)/minShardCandidates))
}

// contiguousShards cuts [0, n) into at most parts equal contiguous
// ranges (the last may be shorter). Work done per range and
// concatenated in range order comes out in serial order.
func contiguousShards(n, parts int) [][2]int {
	chunk := (n + parts - 1) / max(parts, 1)
	var shards [][2]int
	for lo := 0; lo < n; lo += chunk {
		shards = append(shards, [2]int{lo, min(lo+chunk, n)})
	}
	return shards
}

// exactParallel is the unbudgeted pass of ExactBudgeted (which documents
// workers and tick); cand is already validated.
func exactParallel(src matrix.RowSource, cand []pairs.Scored, threshold float64, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	workers = shardWorkers(workers, len(cand))
	if workers <= 1 {
		out, st, err := exactInto(src, cand, threshold)
		if err == nil && tick != nil {
			tick(int64(len(cand)), int64(len(cand)))
		}
		return out, st, err
	}
	shards := contiguousShards(len(cand), workers)
	outs := make([][]pairs.Scored, len(shards))
	stats := make([]Stats, len(shards))
	errs := make([]error, len(shards))

	var streamedShards int64
	if cs, ok := src.(matrix.ConcurrentSource); ok && cs.ConcurrentScan() {
		var wg sync.WaitGroup
		var done atomic.Int64
		for s, sh := range shards {
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				outs[s], stats[s], errs[s] = exactInto(src, cand[lo:hi], threshold)
				if tick != nil && errs[s] == nil {
					tick(done.Add(int64(hi-lo)), int64(len(cand)))
				}
			}(s, sh[0], sh[1])
		}
		wg.Wait()
	} else {
		var err error
		streamedShards, err = exactFanOut(src, cand, threshold, shards, outs, stats)
		if err != nil {
			return nil, Stats{}, err
		}
		if tick != nil {
			tick(int64(len(cand)), int64(len(cand)))
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, Stats{}, err
		}
	}

	total := Stats{In: len(cand), Shards: streamedShards}
	n := 0
	for s := range outs {
		total.Touches += stats[s].Touches
		n += len(outs[s])
	}
	out := make([]pairs.Scored, 0, n)
	for _, o := range outs {
		out = append(out, o...)
	}
	total.Out = len(out)
	return out, total, nil
}

// exactFanOut runs the streaming strategy: one Scan of src chunked into
// bounded shards (matrix.FanOutShards), with each shard broadcast to
// all shard workers. Workers keep their counters across shards (row ids
// are globally unique, so the lastRow trick is unaffected by shard
// boundaries). Returns the number of shards streamed.
func exactFanOut(src matrix.RowSource, cand []pairs.Scored, threshold float64, shards [][2]int, outs [][]pairs.Scored, stats []Stats) (int64, error) {
	m := src.NumCols()
	consumers := make([]func(<-chan *matrix.Shard), len(shards))
	for s, sh := range shards {
		s, lo, hi := s, sh[0], sh[1]
		consumers[s] = func(ch <-chan *matrix.Shard) {
			x := newExactCounters(m, cand[lo:hi])
			for b := range ch {
				for ri := 0; ri < b.Len(); ri++ {
					x.row(b.Row(ri))
				}
			}
			outs[s], stats[s] = x.survivors(threshold)
		}
	}
	return matrix.FanOutShards(src, consumers)
}
