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
	"assocmine/internal/testutil"
)

// Chaos-differential harness: because every run is a pure function of
// (data, Config), IO faults a hardened reader can absorb — transient
// errors, short reads, latency — must be completely invisible: the
// faulty run's pairs and pair-section stats are bit-identical to the
// fault-free run's. Permanent faults must surface as a *FileError with
// path and offset, and cancelled runs must stop promptly without
// leaking goroutines or spill files.

// chaosRetry keeps fault-laden runs fast: same budget as the default
// policy, microsecond backoff.
var chaosRetry = RetryPolicy{Retries: 4, BaseDelay: 10 * time.Microsecond}

var chaosAlgos = []struct {
	name string
	cfg  Config
}{
	{"MH", Config{Algorithm: MinHash, Threshold: 0.5, K: 50, Seed: 7}},
	{"K-MH", Config{Algorithm: KMinHash, Threshold: 0.5, K: 50, Seed: 7}},
	{"M-LSH", Config{Algorithm: MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 7}},
	{"BPS", Config{Algorithm: BPS, Threshold: 0.5, Seed: 7}},
}

// saveChaosFile writes d in the given format and returns the path.
func saveChaosFile(t *testing.T, d *Dataset, ext string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data"+ext)
	var err error
	switch ext {
	case ".arows":
		err = d.SaveRowBinary(path)
	case ".carows":
		err = d.SaveRowCompressed(path)
	default:
		err = d.Save(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// transientPlan layers a guaranteed early transient fault over a seeded
// schedule, so every scan pass exercises the retry path regardless of
// what the seed draws for this path.
func transientPlan(seed uint64) func(path string, open int) []faultfs.Event {
	seeded := faultfs.Seeded(seed, faultfs.Options{MeanGap: 2048})
	return func(path string, open int) []faultfs.Event {
		return append(seeded(path, open), faultfs.Event{Offset: 5, Kind: faultfs.Transient})
	}
}

// TestChaosTransientFaultsBitIdentical: for every scheme, worker count
// and file format, a run under a transient-only fault plan (plus a
// transiently failing first open) must be bit-identical to the
// fault-free run — same pairs, same pair-section stats, same bytes
// read — while the io_retries and faults_injected counters prove the
// faults actually happened.
func TestChaosTransientFaultsBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".txt", ".arows"} {
		path := saveChaosFile(t, d, ext)
		for _, a := range chaosAlgos {
			for _, workers := range []int{1, 4} {
				for _, kernel := range []Kernel{KernelScalar, KernelPacked} {
					t.Run(fmt.Sprintf("%s/%s/workers=%d/%v", ext[1:], a.name, workers, kernel), func(t *testing.T) {
						cfg := a.cfg
						cfg.Workers = workers
						cfg.VerifyKernel = kernel
						cleanFD, err := OpenFileDataset(path)
						if err != nil {
							t.Fatal(err)
						}
						clean, err := cleanFD.SimilarPairs(cfg)
						if err != nil {
							t.Fatalf("fault-free run: %v", err)
						}
						if kernel == KernelPacked && clean.Stats.Candidates > 0 && clean.Stats.PackedBatches == 0 {
							t.Errorf("packed kernel requested but no batches reported: %+v", clean.Stats)
						}
						fs := &faultfs.FS{
							Plan:    transientPlan(97),
							OpenErr: faultfs.TransientOpens(1),
						}
						faultyFD, err := OpenFileDatasetFS(fs, path)
						if err != nil {
							t.Fatalf("open through faulty FS: %v", err)
						}
						faultyFD.SetRetryPolicy(chaosRetry)
						faulty, err := faultyFD.SimilarPairs(cfg)
						if err != nil {
							t.Fatalf("faulty run: %v", err)
						}
						if len(faulty.Pairs) != len(clean.Pairs) {
							t.Fatalf("%d pairs under faults, %d fault-free", len(faulty.Pairs), len(clean.Pairs))
						}
						for i := range clean.Pairs {
							if faulty.Pairs[i] != clean.Pairs[i] {
								t.Fatalf("pair %d: %+v under faults, %+v fault-free", i, faulty.Pairs[i], clean.Pairs[i])
							}
						}
						comparePairSections(t, faulty.Stats, clean.Stats, true)
						if faulty.Stats.BytesRead != clean.Stats.BytesRead {
							t.Errorf("BytesRead = %d under faults, %d fault-free", faulty.Stats.BytesRead, clean.Stats.BytesRead)
						}
						if faulty.Stats.FaultsInjected <= 0 {
							t.Error("faulty run reported zero injected faults")
						}
						if faulty.Stats.IORetries <= 0 {
							t.Error("faulty run reported zero IO retries")
						}
						if clean.Stats.FaultsInjected != 0 || clean.Stats.IORetries != 0 {
							t.Errorf("fault-free run reported faults=%d retries=%d",
								clean.Stats.FaultsInjected, clean.Stats.IORetries)
						}
					})
				}
			}
		}
		// §6 runs the same driver over the same file passes: its faults
		// are absorbed, and counted, the same way.
		t.Run(ext[1:]+"/rules", func(t *testing.T) {
			cfg := RuleConfig{MinConfidence: 0.7, K: 50, Seed: 7}
			cleanFD, err := OpenFileDataset(path)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := cleanFD.MineRules(cfg)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if len(clean.Rules) == 0 {
				t.Fatal("fault-free run mined no rules")
			}
			faultyFD, err := OpenFileDatasetFS(&faultfs.FS{Plan: transientPlan(97), OpenErr: faultfs.TransientOpens(1)}, path)
			if err != nil {
				t.Fatalf("open through faulty FS: %v", err)
			}
			faultyFD.SetRetryPolicy(chaosRetry)
			faulty, err := faultyFD.MineRules(cfg)
			if err != nil {
				t.Fatalf("faulty run: %v", err)
			}
			sameRules(t, faulty.Rules, clean.Rules)
			comparePairSections(t, faulty.Stats, clean.Stats, true)
			if faulty.Stats.BytesRead != clean.Stats.BytesRead || clean.Stats.BytesRead == 0 {
				t.Errorf("BytesRead = %d under faults, %d fault-free", faulty.Stats.BytesRead, clean.Stats.BytesRead)
			}
			if faulty.Stats.FaultsInjected <= 0 || faulty.Stats.IORetries <= 0 {
				t.Errorf("faulty run reported faults=%d retries=%d", faulty.Stats.FaultsInjected, faulty.Stats.IORetries)
			}
			if clean.Stats.FaultsInjected != 0 || clean.Stats.IORetries != 0 {
				t.Errorf("fault-free run reported faults=%d retries=%d", clean.Stats.FaultsInjected, clean.Stats.IORetries)
			}
		})
	}
}

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
	for _, ext := range []string{".txt", ".arows"} {
		path := saveChaosFile(t, d, ext)
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
				fd, err := OpenFileDatasetFS(fs, path)
				if err != nil {
					t.Fatalf("header open should survive a mid-file truncation: %v", err)
				}
				fd.SetRetryPolicy(chaosRetry)
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
	path := saveChaosFile(t, d, ".arows")
	mh := Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13, MemoryBudget: 4096}
	// The packed-verify case drops the budget (forcing it would batch the
	// arena instead of spilling) and cancels inside the popcount sweep,
	// which ticks pair progress at chunk granularity.
	mhPacked := Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13, VerifyKernel: KernelPacked}
	// The BPS cases share the loose Delta and tiny budget so its verify
	// phase, too, spills before the cancel lands.
	bpsChaos := Config{Algorithm: BPS, Threshold: 0.3, Delta: 0.9, Seed: 13, MemoryBudget: 4096}
	cases := []struct {
		name  string
		cfg   Config
		phase string
	}{
		{"MH/signatures", mh, PhaseSignatures},
		{"MH/candidates", mh, PhaseCandidates},
		{"MH/verify", mh, PhaseVerify},
		{"MH/verify-packed", mhPacked, PhaseVerify},
		{"K-MH/candidates", Config{Algorithm: KMinHash, Threshold: 0.5, K: 50, Seed: 7}, PhaseCandidates},
		{"M-LSH/candidates", Config{Algorithm: MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 7}, PhaseCandidates},
		// BPS covers all three of its phases: the streamed supports
		// pass, the sampling scan, and the (spilling) budgeted verify.
		{"BPS/signatures", bpsChaos, PhaseSignatures},
		{"BPS/candidates", bpsChaos, PhaseCandidates},
		{"BPS/verify", bpsChaos, PhaseVerify},
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
			res, err := fd.MineRules(RuleConfig{MinConfidence: 0.7, K: 40, Seed: 13, Context: ctx})
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
		if _, err := MineRulesWithSignatures(d, sig, RuleConfig{MinConfidence: 0.7, Context: ctx}); !errors.Is(err, context.Canceled) {
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
