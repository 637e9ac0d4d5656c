package matrix

import (
	"errors"
	"testing"

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
	var rows []int32
	var cols [][]int32
	shards, err := ScanShards(src, 16, 0, func(sh *Shard) error {
		if sh.Len() == 0 || sh.Len() > 16 {
			t.Fatalf("shard with %d rows, bound 16", sh.Len())
		}
		for i := 0; i < sh.Len(); i++ {
			r, cs := sh.Row(i)
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
		if rows[r] != int32(r) {
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
	shards, err := ScanShards(src, 0, 16, func(sh *Shard) error {
		if sh.Len() > 2 {
			t.Fatalf("shard with %d rows despite 16-col bound on 8-col rows", sh.Len())
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
	_, err := ScanShards(src, 8, 0, func(*Shard) error {
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

// TestFanOutShards: every consumer sees the complete row stream in
// order, and the reported shard count matches a direct ScanShards.
func TestFanOutShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := shardFixture(211, 5)
	const workers = 4
	var totals [workers]int64
	var rowSums [workers]int64
	consumers := make([]func(<-chan *Shard), workers)
	for w := 0; w < workers; w++ {
		w := w
		consumers[w] = func(ch <-chan *Shard) {
			last := int32(-1)
			for sh := range ch {
				for i := 0; i < sh.Len(); i++ {
					r, cs := sh.Row(i)
					if r != last+1 {
						t.Errorf("worker %d: row %d after %d", w, r, last)
					}
					last = r
					totals[w]++
					for _, c := range cs {
						rowSums[w] += int64(c)
					}
				}
			}
		}
	}
	shards, err := feedShards(src, 32, 0, consumers, true)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ScanShards(src, 32, 0, func(*Shard) error { return nil })
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
		t.Errorf("consumers saw %d rows, want 211", totals[0])
	}
}

// TestDistributeShards: consumers partition the shard stream — every
// row is seen exactly once across all consumers, shards land
// round-robin, each consumer sees its shards in scan order, and the
// reported count matches a direct ScanShards.
func TestDistributeShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := shardFixture(211, 5)
	const workers = 4
	seen := make([][]int32, workers)
	shardsPer := make([]int64, workers)
	consumers := make([]func(<-chan *Shard), workers)
	for w := 0; w < workers; w++ {
		w := w
		consumers[w] = func(ch <-chan *Shard) {
			last := int32(-1)
			for sh := range ch {
				shardsPer[w]++
				for i := 0; i < sh.Len(); i++ {
					r, _ := sh.Row(i)
					if r <= last {
						t.Errorf("worker %d: row %d after %d, want increasing", w, r, last)
					}
					last = r
					seen[w] = append(seen[w], r)
				}
			}
		}
	}
	shards, err := feedShards(src, 16, 0, consumers, false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ScanShards(src, 16, 0, func(*Shard) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if shards != direct {
		t.Errorf("distribute shards = %d, direct = %d", shards, direct)
	}
	var perWorker int64
	got := make([]bool, 211)
	for w := 0; w < workers; w++ {
		perWorker += shardsPer[w]
		want := (direct + int64(workers) - 1 - int64(w)) / int64(workers)
		if shardsPer[w] != want {
			t.Errorf("worker %d got %d shards, want %d (round-robin of %d)", w, shardsPer[w], want, direct)
		}
		for _, r := range seen[w] {
			if got[r] {
				t.Errorf("row %d delivered twice", r)
			}
			got[r] = true
		}
	}
	if perWorker != shards {
		t.Errorf("consumers got %d shards total, scan dealt %d", perWorker, shards)
	}
	for r, ok := range got {
		if !ok {
			t.Errorf("row %d never delivered", r)
		}
	}
}

// TestDistributeShardsError: a failed scan still closes every channel
// and returns once consumers exit — no goroutine leak, error propagated.
func TestDistributeShardsError(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	src := &errAfterSource{SliceSource: shardFixture(100, 3), failAt: 40, err: boom}
	consumers := make([]func(<-chan *Shard), 3)
	for i := range consumers {
		consumers[i] = func(ch <-chan *Shard) {
			for range ch {
			}
		}
	}
	_, err := feedShards(src, 8, 0, consumers, false)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
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
	// The underlying SliceSource is a ConcurrentSource; the tail view
	// must not be, or windowed runs would take full-data fast paths.
	var rs RowSource = tail
	if _, ok := rs.(ConcurrentSource); ok {
		t.Error("RangeSource must not implement ConcurrentSource")
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
