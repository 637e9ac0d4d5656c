// The goroutine scheduler. A unit's work depends only on the read-only
// index, so units shard across workers, each with a forked ranger
// (private scratch and output buffer). Because a column's work moves
// with its index (Row-Sort and M-LSH count the later columns of their
// runs, Hash-Count the earlier ones), units are handed out in small
// chunks through an atomic cursor rather than as contiguous ranges;
// chunk outputs are concatenated in chunk order, which restores exactly
// the serial emission order. The work count is identical to the serial
// pass.
package candidate

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// colChunk is the columns handed to a worker at a time, and the
// granularity of progress ticks and cancellation: big enough to keep
// cursor contention negligible, small enough to balance the skewed
// per-column cost.
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

// Scan is the goroutine scheduler over the kernel: all of columns
// [0, n) in chunk steps, appended to dst (whose capacity a caller with
// a buffer to reuse passes in). Serially, tick receives (columns
// processed, n) and ctx is checked after every full chunk; with
// workers > 1 (and more than one chunk; negative means GOMAXPROCS) the
// chunks go to forked rangers through forEachUnit, tick is called from
// the worker goroutines, and a cancelled ctx (nil means Background)
// stops the claiming of chunks and fails the scan with ctx.Err(). The
// candidates, their order and the work count do not depend on workers.
func (k *Kernel) Scan(ctx context.Context, dst []pairs.Scored, workers int, tick obs.Tick) ([]pairs.Scored, int64, error) {
	ctx, workers = normWorkers(ctx, workers)
	n, chunk := k.cols, colChunk
	var work int64
	if workers <= 1 || n <= chunk {
		out := dst
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			var did int64
			out, did = k.r.span(out, lo, hi)
			work += did
			if hi-lo == chunk {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
				if tick != nil {
					tick(int64(hi), int64(n))
				}
			}
		}
		if tick != nil {
			tick(int64(n), int64(n))
		}
		return out, work, nil
	}

	// Each worker appends its chunks' pairs to one private buffer;
	// where[ck] records which buffer and which part of it chunk ck owns.
	numChunks := (n + chunk - 1) / chunk
	workers = min(workers, numChunks)
	type span struct{ worker, lo, hi int }
	where := make([]span, numChunks)
	bufs := make([][]pairs.Scored, workers)
	works := make([]int64, workers)
	var nextWorker, done atomic.Int64
	forEachUnit(ctx, numChunks, workers, func() func(int) {
		w := int(nextWorker.Add(1)) - 1
		r := k.r
		if w > 0 {
			r = k.r.fork() // in the worker: scratch allocation overlaps counting
		}
		return func(ck int) {
			lo := ck * chunk
			hi := min(lo+chunk, n)
			from := len(bufs[w])
			var did int64
			bufs[w], did = r.span(bufs[w], lo, hi)
			works[w] += did
			where[ck] = span{w, from, len(bufs[w])}
			if tick != nil {
				tick(done.Add(int64(hi-lo)), int64(n))
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	total := 0
	for w, b := range bufs {
		total += len(b)
		work += works[w]
	}
	out := slices.Grow(dst, total)
	for _, s := range where {
		out = append(out, bufs[s.worker][s.lo:s.hi]...)
	}
	return out, work, nil
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
