package matrix

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"assocmine/internal/testutil"
)

func shardFixture(rows, colsPerRow int) *SliceSource {
	out := make([][]int32, rows)
	for r := range out {
		row := make([]int32, colsPerRow)
		for i := range row {
			row[i] = int32((r + i) % 50)
		}
		for i := 1; i < len(row); i++ { // keep sorted, dedup by construction
			if row[i] <= row[i-1] {
				row[i] = row[i-1] + 1
			}
		}
		out[r] = row
	}
	return &SliceSource{Cols: 100, Rows: out}
}

// TestScanShardsReassembles: concatenating shard rows reproduces the
// source scan exactly, shards respect the row bound, and the shard
// count is what the bounds predict.
func TestScanShardsReassembles(t *testing.T) {
	src := shardFixture(137, 3)
	var rows []int
	var cols [][]int32
	shards, err := scanShards(src, 16, shardCols, func(sh *shard) error {
		if len(sh.rows) == 0 || len(sh.rows) > 16 {
			t.Fatalf("shard with %d rows, bound 16", len(sh.rows))
		}
		for i := 0; i < len(sh.rows); i++ {
			r, cs := sh.row(i)
			rows = append(rows, r)
			cols = append(cols, append([]int32(nil), cs...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((137 + 15) / 16); shards != want {
		t.Errorf("shards = %d, want %d", shards, want)
	}
	if len(rows) != 137 {
		t.Fatalf("reassembled %d rows, want 137", len(rows))
	}
	for r := range rows {
		if rows[r] != r {
			t.Fatalf("row %d has id %d", r, rows[r])
		}
		want := src.Rows[r]
		if len(cols[r]) != len(want) {
			t.Fatalf("row %d has %d cols, want %d", r, len(cols[r]), len(want))
		}
		for i := range want {
			if cols[r][i] != want[i] {
				t.Fatalf("row %d col %d = %d, want %d", r, i, cols[r][i], want[i])
			}
		}
	}
}

// TestScanShardsColBound: the column bound flushes shards early.
func TestScanShardsColBound(t *testing.T) {
	src := shardFixture(64, 8)
	shards, err := scanShards(src, shardRows, 16, func(sh *shard) error {
		if len(sh.rows) > 2 {
			t.Fatalf("shard with %d rows despite 16-col bound on 8-col rows", len(sh.rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards != 32 {
		t.Errorf("shards = %d, want 32", shards)
	}
}

// TestScanShardsError: fn errors abort the scan and propagate.
func TestScanShardsError(t *testing.T) {
	src := shardFixture(64, 4)
	boom := errors.New("boom")
	n := 0
	_, err := scanShards(src, 8, shardCols, func(*shard) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 2 {
		t.Fatalf("fn ran %d times after error, want 2", n)
	}
}

// readerOnly hides the ConcurrentScan capability of an in-memory
// source, so a broadcast takes the single-reader branch.
type readerOnly struct{ RowSource }

// TestFanOutShards: under a single reader every sink sees the complete
// row stream in order, and the reported shard count matches a direct
// scanShards.
func TestFanOutShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := readerOnly{shardFixture(211, 5)}
	const workers = 4
	var totals [workers]int64
	var rowSums [workers]int64
	sinks := make([]Sink, workers)
	for w := 0; w < workers; w++ {
		last := -1
		sinks[w] = func(r int, cs []int32) error {
			if r != last+1 {
				t.Errorf("worker %d: row %d after %d", w, r, last)
			}
			last = r
			totals[w]++
			for _, c := range cs {
				rowSums[w] += int64(c)
			}
			return nil
		}
	}
	shards, err := feedShards(src, 32, shardCols, sinks, true)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scanShards(src, 32, shardCols, func(*shard) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if shards != direct {
		t.Errorf("fan-out shards = %d, direct = %d", shards, direct)
	}
	for w := 1; w < workers; w++ {
		if totals[w] != totals[0] || rowSums[w] != rowSums[0] {
			t.Errorf("worker %d saw %d rows (sum %d), worker 0 saw %d (sum %d)",
				w, totals[w], rowSums[w], totals[0], rowSums[0])
		}
	}
	if totals[0] != 211 {
		t.Errorf("sinks saw %d rows, want 211", totals[0])
	}
}

// TestDistributeShards: dealt sinks partition the pass — every row is
// seen exactly once across all sinks, shard i lands on sink i mod N
// (here shards are 16 rows), each sink sees its rows in scan order, and
// the reported count matches a direct scanShards.
func TestDistributeShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := shardFixture(211, 5)
	const workers = 4
	seen := make([][]int, workers)
	sinks := make([]Sink, workers)
	for w := 0; w < workers; w++ {
		last := -1
		sinks[w] = func(r int, _ []int32) error {
			if r <= last {
				t.Errorf("worker %d: row %d after %d, want increasing", w, r, last)
			}
			if got := r / 16 % workers; got != w {
				t.Errorf("row %d of shard %d went to worker %d, want %d", r, r/16, w, got)
			}
			last = r
			seen[w] = append(seen[w], r)
			return nil
		}
	}
	shards, err := feedShards(src, 16, shardCols, sinks, false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scanShards(src, 16, shardCols, func(*shard) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if shards != direct {
		t.Errorf("distribute shards = %d, direct = %d", shards, direct)
	}
	got := make([]bool, 211)
	for w := 0; w < workers; w++ {
		for _, r := range seen[w] {
			if got[r] {
				t.Errorf("row %d delivered twice", r)
			}
			got[r] = true
		}
	}
	for r, ok := range got {
		if !ok {
			t.Errorf("row %d never delivered", r)
		}
	}
}

// TestDistributeShardsError: a failed scan still closes every sink's
// channel and returns once the sinks have exited — no goroutine leak,
// error propagated — dealt, broadcast by one reader, and under
// concurrent scans.
func TestDistributeShardsError(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	for _, mode := range feedModes {
		src := mode.view(&errAfterSource{SliceSource: shardFixture(100, 3), failAt: 40, err: boom})
		sinks := make([]Sink, 3)
		for i := range sinks {
			sinks[i] = func(int, []int32) error { return nil }
		}
		if _, err := feedShards(src, 8, shardCols, sinks, mode.broadcast); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want boom", mode.name, err)
		}
	}
}

// feedModes are the three ways several sinks are fed. errAfterSource
// and countingSlice embed *SliceSource and so allow concurrent scans.
var feedModes = []struct {
	name      string
	broadcast bool
	view      func(RowSource) RowSource
}{
	{"dealt", false, func(s RowSource) RowSource { return s }},
	{"broadcast", true, func(s RowSource) RowSource { return readerOnly{s} }},
	{"concurrent", true, func(s RowSource) RowSource { return s }},
}

// countingSlice counts the rows its scans have delivered.
type countingSlice struct {
	*SliceSource
	delivered atomic.Int64
}

func (c *countingSlice) Scan(fn func(row int, cols []int32) error) error {
	return c.SliceSource.Scan(func(row int, cols []int32) error {
		c.delivered.Add(1)
		return fn(row, cols)
	})
}

// TestFailedSinkStopsThePass: a sink failing on row N stops the pass —
// the source delivers at most the shards already in flight past it, not
// the data to its end — the first sink error is the one returned, and
// every sink goroutine has exited when the call returns.
func TestFailedSinkStopsThePass(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		rows, maxRows, nSinks = 20000, 8, 3
		failAt                = 100
	)
	boom := errors.New("boom")
	for _, mode := range feedModes {
		src := &countingSlice{SliceSource: shardFixture(rows, 3)}
		concurrent := mode.name == "concurrent"
		failed := make(chan struct{})
		var finished atomic.Int64
		sinks := make([]Sink, nSinks)
		for w := range sinks {
			sinks[w] = func(row int, _ []int32) error {
				// A dealt pass gives row failAt to one sink; a broadcast
				// one to all, of which sink 1 fails, so which error is
				// first is not a race.
				switch {
				case row == failAt && (!mode.broadcast || w == 1):
					close(failed)
					return boom
				case row >= failAt && mode.broadcast && w == 1:
					t.Errorf("%s: failed sink fed row %d", mode.name, row)
				case row >= failAt && concurrent:
					// Sinks that scan for themselves are not in step:
					// hold the others at row N until the failure, then
					// slow them so that rows measure time.
					<-failed
					time.Sleep(20 * time.Microsecond)
				case row == rows-1:
					finished.Add(1)
				}
				return nil
			}
		}
		_, err := feedShards(mode.view(src), maxRows, shardCols, sinks, mode.broadcast)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the sink's error", mode.name, err)
		}
		// One reader runs ahead of the failed sink by the shard being
		// filled, the one blocked on a full channel, and fanOutDepth
		// slots per sink. Sinks that scan for themselves stop at their
		// next row; allow them the 10 ms of rows a descheduled failer
		// may take to raise the flag.
		bound := int64(failAt + (2+nSinks*fanOutDepth)*maxRows)
		if concurrent {
			bound = nSinks * (failAt + 500)
		}
		if got := src.delivered.Load(); got > bound {
			t.Errorf("%s: source delivered %d rows though a sink failed on row %d, bound %d", mode.name, got, failAt, bound)
		}
		if finished.Load() != 0 {
			t.Errorf("%s: %d sinks ran to the last row", mode.name, finished.Load())
		}
	}
}

// errAfterSource delivers rows until failAt, then fails the scan.
type errAfterSource struct {
	*SliceSource
	failAt int
	err    error
}

func (s *errAfterSource) Scan(fn func(row int, cols []int32) error) error {
	return s.SliceSource.Scan(func(row int, cols []int32) error {
		if row >= s.failAt {
			return s.err
		}
		return fn(row, cols)
	})
}

// TestRangeSourceTail: with To = NumRows() only rows >= From are
// delivered, ids preserved, and the wrapper deliberately hides the
// fast-path capabilities of the wrapped source.
func TestRangeSourceTail(t *testing.T) {
	src := shardFixture(30, 4)
	tail := &RangeSource{Src: src, From: 12, To: src.NumRows()}
	if tail.NumRows() != 30 || tail.NumCols() != 100 {
		t.Fatalf("dims = %dx%d, want 30x100", tail.NumRows(), tail.NumCols())
	}
	var rows []int
	err := tail.Scan(func(row int, cols []int32) error {
		rows = append(rows, row)
		if len(cols) != len(src.Rows[row]) {
			t.Errorf("row %d has %d cols, want %d", row, len(cols), len(src.Rows[row]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 || rows[0] != 12 || rows[len(rows)-1] != 29 {
		t.Fatalf("scanned rows %v, want ids 12..29", rows)
	}
	// The underlying SliceSource is a concurrentSource; the tail view
	// must not be, or windowed runs would take full-data fast paths.
	var rs RowSource = tail
	if _, ok := rs.(concurrentSource); ok {
		t.Error("RangeSource must not implement concurrentSource")
	}
	if _, ok := rs.(ColumnLister); ok {
		t.Error("RangeSource must not implement ColumnLister")
	}
}

// TestFileSourceBytesRead: scans accumulate the file's bytes; two scans
// read it twice.
func TestFileSourceBytesRead(t *testing.T) {
	src := shardFixture(50, 4)
	path := t.TempDir() + "/data.arows"
	if err := SaveRowBinary(path, src); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Path() != path {
		t.Errorf("Path() = %q, want %q", fs.Path(), path)
	}
	if got := fs.BytesRead(); got != 0 {
		t.Fatalf("BytesRead before any scan = %d", got)
	}
	scan := func() {
		if err := fs.Scan(func(int, []int32) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	once := fs.BytesRead()
	if once <= 0 {
		t.Fatalf("BytesRead after one scan = %d", once)
	}
	scan()
	if got := fs.BytesRead(); got != 2*once {
		t.Errorf("BytesRead after two scans = %d, want %d", got, 2*once)
	}
	var _ ByteCounter = fs
}
