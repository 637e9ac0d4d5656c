package assocmine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"assocmine/internal/faultfs"
	"assocmine/internal/obs"
	"assocmine/internal/testutil"
)

// Chaos harness: IO faults a hardened reader can absorb — transient
// errors, short reads, latency — must be invisible (the equivalence
// matrix runs them as its fault axis). Permanent faults must surface as
// a *FileError with path and offset, and cancelled runs must stop
// promptly without leaking goroutines or spill files.

// transientPlan layers a guaranteed early transient fault over a seeded
// schedule, so every scan pass exercises the retry path regardless of
// what the seed draws for this path.
func transientPlan(seed uint64) func(path string, open int) []faultfs.Event {
	seeded := faultfs.Seeded(seed, faultfs.Options{MeanGap: 2048})
	return func(path string, open int) []faultfs.Event {
		return append(seeded(path, open), faultfs.Event{Offset: 5, Kind: faultfs.Transient})
	}
}

// TestChaosTransientFaultsBitIdentical: a run under a transient-only
// fault plan (plus a transiently failing first open) is a cell of the
// equivalence matrix, for every scheme — §6's Rules included — worker
// count, kernel and file format.
func TestChaosTransientFaultsBitIdentical(t *testing.T) { runGroup(t) }

// TestChaosPermanentFaultFailsCleanly: truncating the stream mid-file
// must fail the run with a *FileError carrying the path and a byte
// offset no further than the truncation point — never a hang, panic or
// silent partial result.
func TestChaosPermanentFaultFailsCleanly(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".txt", ".arows", ".carows"} {
		path := saveDataset(t, d, t.TempDir(), ext)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := info.Size() / 2
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", ext[1:], workers), func(t *testing.T) {
				fs := &faultfs.FS{
					Plan: func(string, int) []faultfs.Event {
						return []faultfs.Event{{Offset: cut, Kind: faultfs.Truncate}}
					},
				}
				fd, err := openFileDataset(fs, path)
				if err != nil {
					t.Fatalf("header open should survive a mid-file truncation: %v", err)
				}
				cfg := Config{Algorithm: MinHash, Threshold: 0.5, K: 50, Seed: 7, Workers: workers}
				res, err := fd.SimilarPairs(cfg)
				if err == nil {
					t.Fatalf("run over a truncated stream succeeded with %d pairs", len(res.Pairs))
				}
				var fe *FileError
				if !errors.As(err, &fe) {
					t.Fatalf("err = %v (%T), want *FileError", err, err)
				}
				if fe.Path != path {
					t.Errorf("FileError.Path = %q, want %q", fe.Path, path)
				}
				if fe.Offset <= 0 || fe.Offset > cut {
					t.Errorf("FileError.Offset = %d, want in (0, %d]", fe.Offset, cut)
				}
				if !strings.Contains(err.Error(), path) {
					t.Errorf("error %q does not mention the file path", err)
				}
			})
		}
	}
}

// countChaosSpills returns how many verification spill files remain
// in dir.
func countChaosSpills(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "assocmine-spill-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestChaosCancellation: cancelling the run's Context mid-phase must
// return context.Canceled within a deadline, leak no goroutines, and
// leave zero spill files — including when the cancel lands mid-way
// through a budgeted verification that has already spilled runs. The
// cases cover every phase of MinHash plus the candidate kernels of
// K-MinHash and MinLSH.
func TestChaosCancellation(t *testing.T) {
	// Data scans report progress every 4096 rows, so the row count must
	// exceed that stride for a mid-scan tick (the cancel trigger) to
	// exist; Delta near 1 inflates the candidate list past the budget,
	// so the verify phase spills before the cancel lands.
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 6000, Cols: 120, MinDensity: 0.05, MaxDensity: 0.15, PairsPerRange: 4, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	path := saveDataset(t, d, t.TempDir(), ".arows")
	mh := Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13, MemoryBudget: 4096}
	// The packed-verify case drops the budget, so the candidate columns
	// pack, and cancels inside the popcount sweep, which ticks pair
	// progress at chunk granularity.
	mhPacked := Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}
	// The BPS cases share the loose Delta and tiny budget so its verify
	// phase, too, spills before the cancel lands.
	bpsChaos := Config{Algorithm: BPS, Threshold: 0.3, Delta: 0.9, Seed: 13, MemoryBudget: 4096}
	cases := []struct {
		name  string
		cfg   Config
		phase string
	}{
		{"MH/signatures", mh, obs.PhaseSignatures},
		{"MH/candidates", mh, obs.PhaseCandidates},
		{"MH/verify", mh, obs.PhaseVerify},
		{"MH/verify-packed", mhPacked, obs.PhaseVerify},
		{"K-MH/candidates", Config{Algorithm: KMinHash, Threshold: 0.5, K: 50, Seed: 7}, obs.PhaseCandidates},
		{"M-LSH/candidates", Config{Algorithm: MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 7}, obs.PhaseCandidates},
		// BPS covers all three of its phases: the streamed supports
		// pass, the sampling scan, and the (spilling) budgeted verify.
		{"BPS/signatures", bpsChaos, obs.PhaseSignatures},
		{"BPS/candidates", bpsChaos, obs.PhaseCandidates},
		{"BPS/verify", bpsChaos, obs.PhaseVerify},
	}
	const deadline = 30 * time.Second
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				testutil.CheckGoroutines(t)
				fd, err := OpenFileDataset(path)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := tc.cfg
				cfg.Workers = workers
				cfg.SpillDir = t.TempDir()
				cfg.Context = ctx
				var once sync.Once
				cfg.Progress = func(p string, done, total int64) {
					// Cancel at the phase's first mid-phase tick; the
					// completion tick (done == total) is too late — nothing
					// of the phase remains to observe the cancellation.
					if p == tc.phase && done < total {
						once.Do(cancel)
					}
				}
				start := time.Now()
				res, err := fd.SimilarPairs(cfg)
				elapsed := time.Since(start)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled (result %v)", err, res)
				}
				if elapsed > deadline {
					t.Errorf("cancelled run took %v, deadline %v", elapsed, deadline)
				}
				if n := countChaosSpills(t, cfg.SpillDir); n != 0 {
					t.Errorf("%d spill files remain after cancelled run", n)
				}
			})
		}
	}
	t.Run("pre-cancelled", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		fd, err := OpenFileDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := mh
		cfg.Workers = 4
		cfg.SpillDir = t.TempDir()
		cfg.Context = ctx
		if _, err := fd.SimilarPairs(cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := countChaosSpills(t, cfg.SpillDir); n != 0 {
			t.Errorf("%d spill files remain after pre-cancelled run", n)
		}
	})
	// A rules run has no Progress hook to cancel from, so its context
	// cancels itself at a chosen row of a chosen pass: inside the fold or
	// inside the exact pass, the run returns ctx.Err() having read no
	// further row.
	n := int64(d.NumRows())
	for _, tc := range []struct {
		name  string
		after int64 // context checks that pass before the cancel: a pass makes n+1
	}{
		{"rules/signatures", n / 2},
		{"rules/verify", n + 1 + n/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd, err := OpenFileDataset(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &cancelAfter{Context: context.Background()}
			ctx.n.Store(tc.after)
			res, err := fd.SimilarPairs(Config{Algorithm: Rules, Threshold: 0.7, K: 40, Seed: 13, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v (result %v), want context.Canceled", err, res)
			}
			if got := ctx.calls.Load(); got != tc.after+1 {
				t.Errorf("the run checked its context %d times, want %d: it did not stop at the cancelled row", got, tc.after+1)
			}
		})
	}
	t.Run("rules/adopted", func(t *testing.T) {
		// From adopted signatures the exact pass is the only one.
		sig, err := ComputeSignatures(d, 40, 13, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := SimilarPairsWith(d, sig, Config{Algorithm: Rules, Threshold: 0.7, Context: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// cancelAfter is a context that reports cancellation from its n+1-th
// Err call on — a scan checks it once before its first row and once per
// row — and counts the calls.
type cancelAfter struct {
	context.Context
	n, calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n.Load() {
		return context.Canceled
	}
	return nil
}
