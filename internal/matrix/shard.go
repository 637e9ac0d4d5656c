package matrix

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Sink consumes the rows of a pass in row order: a Scan callback. Deal
// and Broadcast are the one implementation of "feed the rows of ONE
// sequential pass to N sinks" — the phase-1 fold, the BPS sampler and
// the scalar verification kernels make their sinks, call one of the two
// and merge. One sink is a direct Scan: no shard copy, no goroutine, 0
// shards. Several sinks each run in their own goroutine. The first sink
// error stops the pass — the reader hands out no further shard, the
// other sinks skip what is still in flight, at most one shard per
// channel slot — and is the error returned; a scan error is returned
// when no sink failed. Both return once every sink goroutine has
// exited, with the number of shards the reader handed out.
type Sink func(row int, cols []int32) error

// Deal gives each bounded shard of consecutive rows to the next sink in
// turn: a deterministic round-robin partition of the pass, for
// accumulators that merge exactly (pointwise min, bottom-k union,
// addition), at a constant number of in-flight shards.
func Deal(src RowSource, sinks []Sink) (int64, error) {
	return feedShards(src, shardRows, shardCols, sinks, false)
}

// Broadcast gives every row to every sink. A source that allows
// concurrent scans (in-memory data) is scanned by each sink itself —
// scans are cheap next to the sinks' work and nothing is copied, 0
// shards; any other source is read once, the single pass the
// disk-resident setting allows, and each shard is shared read-only by
// all sinks.
func Broadcast(src RowSource, sinks []Sink) (int64, error) {
	return feedShards(src, shardRows, shardCols, sinks, true)
}

// CanScanConcurrently reports whether src allows overlapping Scans.
func CanScanConcurrently(src RowSource) bool {
	cs, ok := src.(concurrentSource)
	return ok && cs.ConcurrentScan()
}

// shard is a bounded, copied block of consecutive rows of a pass: row i
// has id rows[i] and columns cols[offs[i]:offs[i+1]]. It holds at most
// shardRows rows and shardCols column entries, whichever fills first
// (≈32 KiB of column data — cache-resident, and a handful of in-flight
// shards keeps memory bounded whatever the dataset size).
type shard struct {
	rows, offs, cols []int32
}

const (
	shardRows = 512
	shardCols = 8192
)

func (s *shard) row(i int) (int, []int32) {
	return int(s.rows[i]), s.cols[s.offs[i]:s.offs[i+1]]
}

// scanShards performs one sequential Scan of src, packing rows into
// freshly allocated shards of at most maxRows rows and maxCols entries
// and invoking fn once per shard in row order. Returns the number of
// shards delivered.
func scanShards(src RowSource, maxRows, maxCols int, fn func(*shard) error) (int64, error) {
	var shards int64
	var cur *shard
	flush := func() error {
		sh := cur
		cur = nil
		shards++
		return fn(sh)
	}
	err := src.Scan(func(row int, cols []int32) error {
		if cur == nil {
			cur = &shard{
				rows: make([]int32, 0, maxRows),
				offs: append(make([]int32, 0, maxRows+1), 0),
				cols: make([]int32, 0, maxCols),
			}
		}
		cur.rows = append(cur.rows, int32(row))
		cur.cols = append(cur.cols, cols...)
		cur.offs = append(cur.offs, int32(len(cur.cols)))
		if len(cur.rows) >= maxRows || len(cur.cols) >= maxCols {
			return flush()
		}
		return nil
	})
	if err != nil || cur == nil {
		return shards, err
	}
	return shards, flush()
}

// fanOutDepth is the per-sink channel buffer: deep enough to keep sinks
// busy while the reader decodes the next shard, shallow enough that
// in-flight shards stay a constant-memory affair.
const fanOutDepth = 4

// errStopped aborts a scan after a sink has failed; it never escapes
// feedShards.
var errStopped = errors.New("matrix: pass stopped")

// feedShards is Deal and Broadcast over shards of the given bounds.
func feedShards(src RowSource, maxRows, maxCols int, sinks []Sink, broadcast bool) (int64, error) {
	if len(sinks) == 1 {
		return 0, src.Scan(sinks[0])
	}
	var (
		wg      sync.WaitGroup
		stopped atomic.Bool
		first   error // the first sink error; read after wg.Wait
	)
	// fail keeps the first error; errStopped, returned only once the pass
	// has failed, never is.
	fail := func(err error) {
		if stopped.CompareAndSwap(false, true) {
			first = err
		}
	}
	if broadcast && CanScanConcurrently(src) {
		for _, sink := range sinks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := src.Scan(func(row int, cols []int32) error {
					if stopped.Load() {
						return errStopped
					}
					return sink(row, cols)
				})
				if err != nil {
					fail(err)
				}
			}()
		}
		wg.Wait()
		return 0, first
	}

	chans := make([]chan *shard, len(sinks))
	for i, sink := range sinks {
		ch := make(chan *shard, fanOutDepth)
		chans[i] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range ch {
				if stopped.Load() {
					continue // keep draining so the reader never blocks
				}
				for i := range sh.rows {
					if err := sink(sh.row(i)); err != nil {
						fail(err)
						break
					}
				}
			}
		}()
	}
	next := 0
	shards, err := scanShards(src, maxRows, maxCols, func(sh *shard) error {
		if stopped.Load() {
			return errStopped
		}
		if broadcast {
			for _, ch := range chans {
				ch <- sh
			}
		} else {
			chans[next] <- sh
			next = (next + 1) % len(chans)
		}
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err != nil {
		fail(err)
	}
	return shards, first
}
