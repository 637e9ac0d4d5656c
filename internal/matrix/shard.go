package matrix

import "sync"

// Shard is a bounded, copied block of consecutive rows from a single
// sequential pass: rows[i] is the row id of the i-th row in the shard
// and its columns span Cols[Offs[i]:Offs[i+1]]. Shards are the unit of
// work the out-of-core path hands to parallel consumers — small enough
// that a handful of in-flight shards keeps memory bounded regardless of
// the dataset size, large enough that channel traffic never dominates.
//
// A Shard delivered through FanOutShards is shared read-only by every
// consumer; consumers must not mutate it.
type Shard struct {
	Rows []int32 // row ids, in scan order
	Offs []int32 // len(Rows)+1 offsets into Cols
	Cols []int32 // concatenated sorted column indices
}

// Len returns the number of rows in the shard.
func (s *Shard) Len() int { return len(s.Rows) }

// Row returns the id and column indices of the i-th row in the shard.
func (s *Shard) Row(i int) (int32, []int32) {
	return s.Rows[i], s.Cols[s.Offs[i]:s.Offs[i+1]]
}

// Default shard bounds: a shard holds at most DefaultShardRows rows and
// DefaultShardCols column entries, whichever fills first (≈32 KiB of
// column data — comfortably cache-resident, and at most a few shards
// are ever in flight).
const (
	DefaultShardRows = 512
	DefaultShardCols = 8192
)

// ScanShards performs one sequential Scan of src, packing rows into
// bounded shards and invoking fn once per shard in row order. maxRows
// and maxCols bound the shard size; values <= 0 select the defaults.
// Each shard is freshly allocated, so fn may retain or forward it.
// Returns the number of shards delivered.
func ScanShards(src RowSource, maxRows, maxCols int, fn func(*Shard) error) (int64, error) {
	if maxRows <= 0 {
		maxRows = DefaultShardRows
	}
	if maxCols <= 0 {
		maxCols = DefaultShardCols
	}
	var shards int64
	newShard := func() *Shard {
		return &Shard{
			Rows: make([]int32, 0, maxRows),
			Offs: append(make([]int32, 0, maxRows+1), 0),
			Cols: make([]int32, 0, maxCols),
		}
	}
	cur := newShard()
	flush := func() error {
		if len(cur.Rows) == 0 {
			return nil
		}
		shards++
		err := fn(cur)
		cur = newShard()
		return err
	}
	err := src.Scan(func(row int, cols []int32) error {
		cur.Rows = append(cur.Rows, int32(row))
		cur.Cols = append(cur.Cols, cols...)
		cur.Offs = append(cur.Offs, int32(len(cur.Cols)))
		if len(cur.Rows) >= maxRows || len(cur.Cols) >= maxCols {
			return flush()
		}
		return nil
	})
	if err != nil {
		return shards, err
	}
	if err := flush(); err != nil {
		return shards, err
	}
	return shards, nil
}

// fanOutDepth is the per-consumer channel buffer: deep enough to keep
// consumers busy while the reader decodes the next shard, shallow
// enough that in-flight shards stay a constant-memory affair.
const fanOutDepth = 4

// FanOutShards performs ONE sequential Scan of src — the single pass
// the disk-resident setting allows — broadcasting every shard to each
// consumer, which runs in its own goroutine on its own channel. It is
// the delivery mechanism of the streamed parallel verification kernels:
// exact verification and the budgeted spill pass. FanOutShards returns
// once the scan is finished and every consumer has drained its channel,
// reporting the number of shards broadcast.
func FanOutShards(src RowSource, consumers []func(<-chan *Shard)) (int64, error) {
	return feedShards(src, 0, 0, consumers, true)
}

// DistributeShards performs ONE sequential Scan of src, dealing shard i
// to consumer i%len(consumers) — a deterministic round-robin partition
// of the row range, as opposed to FanOutShards' broadcast. It is the
// delivery mechanism of the merge-based streamed signature drivers:
// each consumer folds its disjoint subset of rows into a private
// accumulator and the caller merges the accumulators afterwards, which
// is exact because the sketch folds are mergeable (pointwise min /
// bottom-k union). Each consumer sees its shards in scan order.
// DistributeShards returns once the scan is finished and every consumer
// has drained its channel, reporting the number of shards dealt.
func DistributeShards(src RowSource, consumers []func(<-chan *Shard)) (int64, error) {
	return feedShards(src, 0, 0, consumers, false)
}

// feedShards starts every consumer on its own channel, runs one
// ScanShards pass routing each shard to all of them (broadcast) or to
// the next one in turn, then closes the channels and waits — also when
// the scan fails, so no consumer is left blocked.
func feedShards(src RowSource, maxRows, maxCols int, consumers []func(<-chan *Shard), broadcast bool) (int64, error) {
	chans := make([]chan *Shard, len(consumers))
	var wg sync.WaitGroup
	for i, consume := range consumers {
		chans[i] = make(chan *Shard, fanOutDepth)
		wg.Add(1)
		go func(consume func(<-chan *Shard), ch <-chan *Shard) {
			defer wg.Done()
			consume(ch)
		}(consume, chans[i])
	}
	next := 0
	shards, err := ScanShards(src, maxRows, maxCols, func(sh *Shard) error {
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
	return shards, err
}
