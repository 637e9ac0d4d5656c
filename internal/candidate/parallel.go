// Scheduling the rangers. A column's counting depends only on the
// read-only index, so columns shard across workers, each with a forked
// ranger (private counter array and output buffer). Because a column's
// work grows with its index under Hash-Count (it counts against the
// earlier columns only), columns are handed out in small chunks through
// an atomic cursor rather than as contiguous ranges; chunk outputs are
// concatenated in chunk order, which restores exactly the serial
// emission order. All Stats are identical to the serial pass.
package candidate

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// colChunk is the unit of work handed to a worker, and the granularity
// of progress ticks and cancellation: big enough to keep cursor
// contention negligible, small enough to balance the skewed per-column
// cost.
const colChunk = 32

// forEachUnit runs units [0, n) across workers goroutines (inline for
// workers <= 1) through an atomic cursor. start runs once per worker
// and returns its unit function, so scratch allocated in start is
// private to the worker. Workers stop claiming units once ctx is
// cancelled; the caller checks ctx.Err() afterwards.
func forEachUnit(ctx context.Context, n, workers int, start func() func(unit int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn := start()
		for u := 0; u < n && ctx.Err() == nil; u++ {
			fn(u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := start()
			for ctx.Err() == nil {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				fn(u)
			}
		}()
	}
	wg.Wait()
}

// columnRanger is what the drivers schedule: MHRanger and KMHRanger.
type columnRanger interface {
	// columns appends the candidates of columns [lo, hi) to out.
	columns(out []pairs.Scored, lo, hi int) []pairs.Scored
	// fork returns a ranger over the same index with private scratch.
	fork() columnRanger
	// total returns the increments counted so far.
	total() int64
}

func (c *counter) total() int64 { return c.increments }

// scan drives r over columns [0, m) in colChunk steps. Serially, tick
// receives (columns processed, m) and ctx is checked after every full
// chunk; with workers > 1 (and more than one chunk) the chunks go to
// forked rangers, tick is called from the worker goroutines, and a
// cancelled ctx stops the claiming of chunks. Output and Stats do not
// depend on workers.
func scan(ctx context.Context, r columnRanger, m, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	if workers <= 1 || m <= colChunk {
		var out []pairs.Scored
		for lo := 0; lo < m; lo += colChunk {
			hi := min(lo+colChunk, m)
			out = r.columns(out, lo, hi)
			if hi-lo == colChunk {
				if err := ctx.Err(); err != nil {
					return nil, Stats{}, err
				}
				if tick != nil {
					tick(int64(hi), int64(m))
				}
			}
		}
		if tick != nil {
			tick(int64(m), int64(m))
		}
		return out, Stats{Increments: r.total(), Candidates: len(out)}, nil
	}

	// Each worker appends its chunks' pairs to one private buffer;
	// where[ck] records which buffer and which part of it chunk ck owns.
	type span struct{ worker, lo, hi int }
	numChunks := (m + colChunk - 1) / colChunk
	workers = min(workers, numChunks)
	where := make([]span, numChunks)
	bufs := make([][]pairs.Scored, workers)
	rangers := make([]columnRanger, workers)
	rangers[0] = r
	for w := 1; w < workers; w++ {
		rangers[w] = r.fork()
	}
	var nextWorker, done atomic.Int64
	forEachUnit(ctx, numChunks, workers, func() func(int) {
		w := int(nextWorker.Add(1)) - 1
		return func(ck int) {
			lo := ck * colChunk
			hi := min(lo+colChunk, m)
			from := len(bufs[w])
			bufs[w] = rangers[w].columns(bufs[w], lo, hi)
			where[ck] = span{w, from, len(bufs[w])}
			if tick != nil {
				tick(done.Add(int64(hi-lo)), int64(m))
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	for _, f := range rangers {
		st.Increments += f.total()
	}
	for _, b := range bufs {
		st.Candidates += len(b)
	}
	out := make([]pairs.Scored, 0, st.Candidates)
	for _, s := range where {
		out = append(out, bufs[s.worker][s.lo:s.hi]...)
	}
	return out, st, nil
}

// normWorkers maps the drivers' worker convention (negative means
// GOMAXPROCS) to a count, and a nil ctx to Background.
func normWorkers(ctx context.Context, workers int) (context.Context, int) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return ctx, workers
}

// scanMH builds the MH index (rows sorted across workers) and scans it.
func scanMH(ctx context.Context, sig *minhash.Signatures, cutoff float64, earlier bool, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	ctx, workers = normWorkers(ctx, workers)
	r, err := newMHRanger(ctx, sig, cutoff, earlier, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	return scan(ctx, r, sig.M, workers, tick)
}

// RowSortMHParallelProgress is RowSortMH with both stages parallelised
// — the per-row sorting (k independent rows) and the per-column run
// scan — plus a progress hook and cancellation. Output and Stats are
// identical to RowSortMH for any worker count; workers <= 1 runs the
// serial pass, negative means GOMAXPROCS. tick (when non-nil) receives
// (columns counted, total columns), from worker goroutines at chunk
// granularity in the parallel path and inline in the serial path; a
// cancelled ctx (nil means Background) aborts at chunk granularity with
// ctx.Err().
func RowSortMHParallelProgress(ctx context.Context, sig *minhash.Signatures, cutoff float64, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	return scanMH(ctx, sig, cutoff, false, workers, tick)
}

// HashCountKMHParallelProgress is HashCountKMH with the column counting
// sharded across workers, a progress hook and cancellation, following
// the RowSortMHParallelProgress conventions. The index (one radix sort
// over all sketch values) is built serially — it is the cheap O(m·k)
// part — and shared read-only.
func HashCountKMHParallelProgress(ctx context.Context, s *kminhash.Sketches, opt KMHOptions, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	ctx, workers = normWorkers(ctx, workers)
	r, err := NewKMHRanger(s, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return scan(ctx, r, len(s.Sigs), workers, tick)
}
