package verify

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// countSpillFiles returns how many spill files remain in dir.
func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "assocmine-spill-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestBudgetWorkerCleanupAfterMergeFailure is the regression test for
// spill-file leaks: force spills, cut the spill file inside its first
// run so the merge fails mid-way, and verify cleanup leaves the spill
// directory empty.
func TestBudgetWorkerCleanupAfterMergeFailure(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	m := randomMatrix(rng, 400, 40, 0.2)
	cand := allPairsCandidates(40)
	dir := t.TempDir()
	w := newBudgetWorker(40, cand, newAdmission(400, Params{Threshold: 0.01}), minSpillEntries, spillFanIn, dir)
	err := m.Stream().Scan(func(row int, cols []int32) error {
		return w.processRow(int32(row), cols)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.runs) < 2 {
		t.Fatalf("only %d spill runs; fixture too small to force the merge", len(w.runs))
	}
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files for one worker's %d runs, want 1", n, len(w.runs))
	}
	if err := w.file.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.finish(); err == nil {
		t.Fatal("finish succeeded over a truncated spill file")
	}
	w.cleanup()
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files remain after cleanup", n)
	}
}

// errAfterSource delivers rows until failAt, then fails the scan — a
// permanent mid-pass fault.
type errAfterSource struct {
	src    matrix.RowSource
	failAt int
}

var errMidScan = errors.New("synthetic mid-scan failure")

func (e *errAfterSource) NumRows() int { return e.src.NumRows() }
func (e *errAfterSource) NumCols() int { return e.src.NumCols() }
func (e *errAfterSource) Scan(fn func(row int, cols []int32) error) error {
	return e.src.Scan(func(row int, cols []int32) error {
		if row >= e.failAt {
			return errMidScan
		}
		return fn(row, cols)
	})
}

// TestExactBudgetedCleanupOnScanError: a scan failing after enough rows
// to force spills must propagate the error and leave no spill file, at
// both the serial and fan-out worker counts.
func TestExactBudgetedCleanupOnScanError(t *testing.T) {
	testutil.CheckGoroutines(t)
	rng := hashing.NewSplitMix64(29)
	m := randomMatrix(rng, 500, 40, 0.2)
	cand := allPairsCandidates(40)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			src := &errAfterSource{src: m.Stream(), failAt: 400}
			_, _, err := ExactBudgeted(src, cand, 0.01, Budget{Bytes: 4096, Dir: dir}, workers, nil)
			if !errors.Is(err, errMidScan) {
				t.Fatalf("err = %v, want the mid-scan failure", err)
			}
			if n := countSpillFiles(t, dir); n != 0 {
				t.Fatalf("%d spill files remain after failed scan", n)
			}
		})
	}
}

// TestExactBudgetedCleanupOnCancel: a context cancelled after the pass
// has spilled must surface as the context's error and leave no spill
// file.
func TestExactBudgetedCleanupOnCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Long enough that the fan-out's workers, which run a few 512-row
	// shards behind the reader, have spilled when the hook fires.
	rng := hashing.NewSplitMix64(37)
	m := randomMatrix(rng, 6000, 40, 0.2)
	cand := allPairsCandidates(40)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spilled := false
			src := matrix.WithContext(ctx, &hookSource{src: m.Stream(), at: 5500, hook: func() {
				spilled = countSpillFiles(t, dir) > 0
				cancel()
			}})
			_, _, err := ExactBudgeted(src, cand, 0.01, Budget{Bytes: 4096, Dir: dir}, workers, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !spilled {
				t.Fatal("nothing had spilled when the cancel landed; fixture too small")
			}
			if n := countSpillFiles(t, dir); n != 0 {
				t.Fatalf("%d spill files remain after cancellation", n)
			}
		})
	}
}

// hookSource calls hook just before delivering row at.
type hookSource struct {
	src  matrix.RowSource
	at   int
	hook func()
}

func (h *hookSource) NumRows() int { return h.src.NumRows() }
func (h *hookSource) NumCols() int { return h.src.NumCols() }
func (h *hookSource) Scan(fn func(row int, cols []int32) error) error {
	return h.src.Scan(func(row int, cols []int32) error {
		if row == h.at {
			h.hook()
		}
		return fn(row, cols)
	})
}

// TestExactBudgetedSpillDirMissing: an unusable spill directory must
// surface as an error from the first spill, not a panic or a hang, and
// obviously leave nothing behind.
func TestExactBudgetedSpillDirMissing(t *testing.T) {
	rng := hashing.NewSplitMix64(31)
	m := randomMatrix(rng, 400, 40, 0.2)
	cand := allPairsCandidates(40)
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	_, _, err := ExactBudgeted(m.Stream(), cand, 0.01, Budget{Bytes: 4096, Dir: dir}, 1, nil)
	if err == nil {
		t.Fatal("ExactBudgeted succeeded with a nonexistent spill dir")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want to wrap fs.ErrNotExist", err)
	}
}

// TestExactBudgetedManyRuns pins ROADMAP B(i): with one file per run
// and an unbounded merge, a budget small enough to spill after every
// row opened a descriptor per run and died with EMFILE. The soft
// descriptor limit is lowered to 64 and the pass made to write many
// times that in runs; it must still equal Exact pair for pair, with one
// spill file per worker while it runs and none afterwards. Not
// parallel: the limit is process-wide.
func TestExactBudgetedManyRuns(t *testing.T) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	low := old
	low.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old)

	// The fan-out's workers run a few 512-row shards behind the reader,
	// so the parallel case needs the rows for every worker to have
	// spilled when the last row is read.
	// The large case is the ROADMAP's: more than 20 000 runs, of sparser
	// rows to keep it quick.
	sizes := []struct {
		rows, workers int
		density       float64
		minRuns       int64
	}{{1500, 1, 0.15, 1400}, {4000, 4, 0.15, 15000}, {30000, 1, 0.04, 20000}}
	for _, sz := range sizes {
		t.Run(fmt.Sprintf("rows=%d/workers=%d", sz.rows, sz.workers), func(t *testing.T) {
			if sz.rows > 4000 && testing.Short() {
				t.Skip("large variant skipped under -short")
			}
			rng := hashing.NewSplitMix64(43)
			m := randomMatrix(rng, sz.rows, 80, sz.density)
			cand := allPairsCandidates(80) // 3160 candidates, 79 to a column
			want, wantSt, err := Exact(m.Stream(), cand, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			files := 0
			src := &hookSource{src: m.Stream(), at: sz.rows - 1, hook: func() { files = countSpillFiles(t, dir) }}
			budget := Budget{Bytes: minSpillEntries * spillEntryBytes, Dir: dir}
			got, st, err := ExactBudgeted(src, cand, 0.05, budget, sz.workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("output differs from Exact: %d pairs vs %d", len(got), len(want))
			}
			if st.Touches != wantSt.Touches || st.Out != wantSt.Out {
				t.Fatalf("stats %+v, want Touches/Out of %+v", st, wantSt)
			}
			if st.SpillRuns < sz.minRuns {
				t.Fatalf("%d runs, want at least %d against a limit of %d descriptors", st.SpillRuns, sz.minRuns, low.Cur)
			}
			if files != sz.workers {
				t.Fatalf("%d spill files during the pass, want one per worker (%d)", files, sz.workers)
			}
			if n := countSpillFiles(t, dir); n != 0 {
				t.Fatalf("%d spill files remain", n)
			}
		})
	}
}
