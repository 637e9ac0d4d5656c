package assocmine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSignaturesRoundTrip(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 40, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 40 || s.NumCols() != d.NumCols() || s.Seed() != 7 {
		t.Fatalf("metadata: k=%d m=%d seed=%d", s.K(), s.NumCols(), s.Seed())
	}
	path := filepath.Join(t.TempDir(), "sketch.amh")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSignatures(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != s.K() || loaded.Seed() != s.Seed() {
		t.Fatal("metadata did not round trip")
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if loaded.Estimate(i, j) != s.Estimate(i, j) {
				t.Fatalf("estimate (%d,%d) differs after round trip", i, j)
			}
		}
	}
}

// TestSignaturesCompressedRoundTrip: SaveCompressed must load back
// bit-identical through LoadSignatures while writing a smaller file,
// and a loaded sketch (row count unknown) must refuse to re-save
// compressed.
func TestSignaturesCompressedRoundTrip(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 40, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	raw := filepath.Join(dir, "sketch.amh")
	comp := filepath.Join(dir, "sketch.amc")
	if err := s.Save(raw); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCompressed(comp); err != nil {
		t.Fatal(err)
	}
	ri, err := os.Stat(raw)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.Stat(comp)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Size()*3 > ri.Size() {
		t.Errorf("compressed sketch %d bytes, raw %d: expected at least 3x", ci.Size(), ri.Size())
	}
	loaded, err := LoadSignatures(comp)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != s.K() || loaded.Seed() != s.Seed() || loaded.NumCols() != s.NumCols() {
		t.Fatal("metadata did not round trip")
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if loaded.Estimate(i, j) != s.Estimate(i, j) {
				t.Fatalf("estimate (%d,%d) differs after compressed round trip", i, j)
			}
		}
	}
	if err := loaded.SaveCompressed(filepath.Join(dir, "again.amc")); err == nil {
		t.Error("loaded sketch re-saved compressed despite unknown row count")
	}
}

func TestSignaturesParallelIdentical(t *testing.T) {
	d, _ := plantedDataset(t)
	a, err := ComputeSignatures(d, 30, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeSignatures(d, 30, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if a.Estimate(i, j) != b.Estimate(i, j) {
				t.Fatal("parallel sketch differs from serial")
			}
		}
	}
}

// TestSimilarPairsWithSignaturesMatchesDirect: answering from the
// precomputed sketch must equal the one-shot pipeline with the same
// seed and K — and setting Config.Context must change nothing about
// the answer or the work counted (a context wrapper that hid the
// in-memory column lists used to turn the packed verify into a row
// scan), while a cancelled one still aborts the query.
func TestSimilarPairsWithSignaturesMatchesDirect(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 60, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range []Config{
		{Algorithm: MinHash, Threshold: 0.6, K: 60, Seed: 5},
		{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 20, Seed: 5},
	} {
		direct, err := SimilarPairs(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromSketch, err := SimilarPairsWithSignatures(d, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromSketch.Pairs, direct.Pairs) {
			t.Fatalf("%v: %d pairs direct, %d from sketch (or they differ)",
				cfg.Algorithm, len(direct.Pairs), len(fromSketch.Pairs))
		}
		if fromSketch.Stats.SignatureTime != 0 {
			t.Errorf("%v: sketch-based query claims signature time", cfg.Algorithm)
		}
		for _, query := range map[string]func(Config) (*Result, error){
			"direct":      func(c Config) (*Result, error) { return SimilarPairs(d, c) },
			"from sketch": func(c Config) (*Result, error) { return SimilarPairsWithSignatures(d, s, c) },
		} {
			plain, err := query(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Context = context.Background()
			withCtx, err := query(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withCtx.Pairs, plain.Pairs) {
				t.Errorf("%v: pairs differ once Config.Context is set", cfg.Algorithm)
			}
			comparePairSections(t, withCtx.Stats, plain.Stats, true)
			cfg.Context = cancelled
			if _, err := query(cfg); !errors.Is(err, context.Canceled) {
				t.Errorf("%v: cancelled context returned %v, want context.Canceled", cfg.Algorithm, err)
			}
			cfg.Context = nil
		}
	}
}

// TestSignatureReuseAcrossQueries: one sketch answers multiple
// thresholds and band layouts.
func TestSignatureReuseAcrossQueries(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 100, 9, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0.5, 0.7, 0.9} {
		res, err := SimilarPairsWithSignatures(d, s, Config{
			Algorithm: MinLSH, Threshold: th, R: 5, L: 20,
		})
		if err != nil {
			t.Fatalf("threshold %v: %v", th, err)
		}
		for _, p := range res.Pairs {
			if p.Similarity < th {
				t.Errorf("threshold %v: pair %+v below threshold", th, p)
			}
		}
	}
}

func TestSimilarPairsWithSignaturesValidation(t *testing.T) {
	d, _ := NewDatasetFromRows(4, [][]int{{0, 1}, {0, 1}, {2}, {3}})
	s, err := ComputeSignatures(d, 20, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimilarPairsWithSignatures(d, s, Config{Algorithm: HammingLSH, Threshold: 0.5}); err == nil {
		t.Error("HammingLSH from sketch accepted")
	}
	if _, err := SimilarPairsWithSignatures(d, s, Config{Algorithm: MinLSH, Threshold: 0.5, R: 10, L: 10}); err == nil {
		t.Error("R*L > K accepted")
	}
	other, _ := NewDatasetFromRows(2, [][]int{{0}, {1}})
	if _, err := SimilarPairsWithSignatures(other, s, Config{Algorithm: MinHash, Threshold: 0.5}); err == nil {
		t.Error("column-count mismatch accepted")
	}
}

func TestLoadSignaturesErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSignatures(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := writeFile(bad, []byte("NOPE")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSignatures(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// windowSketches builds the sketches of the trailing window rows of d
// the way a sliding-window Ingest does (row ids preserved), for queries
// that set Config.Window.
func windowSketches(t *testing.T, d *Dataset, k int, seed uint64, window int) (*Signatures, *Sketches) {
	t.Helper()
	fold := func(algo Algorithm) *Ingest {
		in, err := NewIngest(algo, d.NumCols(), k, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < d.NumRows(); off += window / 2 {
			if err := in.AppendRows(srcRows(t, d, off, off+window/2), 1); err != nil {
				t.Fatal(err)
			}
		}
		if in.LiveRows() != int64(window) {
			t.Fatalf("LiveRows() = %d, want %d", in.LiveRows(), window)
		}
		return in
	}
	sig, err := fold(MinHash).Signatures()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := fold(KMinHash).Sketches()
	if err != nil {
		t.Fatal(err)
	}
	return sig, sk
}

// TestPrecomputedSketchesHonourMemoryBudget: the precomputed-sketch
// entry points run the very verify step SimilarPairs runs. Over
// {full data, sliding window} x {unbudgeted, a budget below the counter
// table} x {1, 2 workers} x {scalar, packed kernel} they mine the
// direct run's pairs bit for bit and report its verify-phase counters
// exactly: the direct run's Stats less what its signature phase alone
// accounts (measured by a SkipVerify run). A tight budget spills under
// the scalar kernel and batches under the packed one.
func TestPrecomputedSketchesHonourMemoryBudget(t *testing.T) {
	d, _ := plantedDataset(t)
	const k, seed, window = 60, 5, 2000
	fullSig, err := ComputeSignatures(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullSk, err := ComputeSketches(d, k, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	tailSig, tailSk := windowSketches(t, d, k, seed, window)
	queries := []struct {
		name string
		cfg  Config
	}{
		{"mh", Config{Algorithm: MinHash}},
		{"mlsh", Config{Algorithm: MinLSH, R: 1, L: 20}}, // one-row bands: thousands of candidates
		{"kmh", Config{Algorithm: KMinHash}},
	}
	for _, q := range queries {
		for _, win := range []int{0, window} {
			sig, sk := fullSig, fullSk
			if win > 0 {
				sig, sk = tailSig, tailSk
			}
			fromSketch := func(cfg Config) (*Result, error) {
				if cfg.Algorithm == KMinHash {
					return SimilarPairsWithSketches(d, sk, cfg)
				}
				return SimilarPairsWithSignatures(d, sig, cfg)
			}
			for _, workers := range []int{1, 2} {
				for _, kernel := range []Kernel{KernelScalar, KernelPacked} {
					t.Run(fmt.Sprintf("%s/window=%d/workers=%d/%v", q.name, win, workers, kernel), func(t *testing.T) {
						// Delta 0.9 floods verification with candidates.
						cfg := q.cfg
						cfg.Threshold, cfg.Delta, cfg.K, cfg.Seed = 0.3, 0.9, k, seed
						cfg.Window, cfg.Workers, cfg.VerifyKernel = win, workers, kernel
						var free *Result
						for _, budget := range []int64{0, 48 << 10} {
							cfg.MemoryBudget, cfg.SpillDir = budget, t.TempDir()
							got, err := fromSketch(cfg)
							if err != nil {
								t.Fatal(err)
							}
							direct, err := SimilarPairs(d, cfg)
							if err != nil {
								t.Fatal(err)
							}
							sigOnly := cfg
							sigOnly.SkipVerify = true
							phase1, err := SimilarPairs(d, sigOnly)
							if err != nil {
								t.Fatal(err)
							}
							if len(got.Pairs) == 0 || !reflect.DeepEqual(got.Pairs, direct.Pairs) {
								t.Fatalf("budget %d: %d pairs from sketch, %d direct (or they differ)", budget, len(got.Pairs), len(direct.Pairs))
							}
							want := direct.Stats
							want.SignatureCells = 0
							want.DataPasses -= phase1.Stats.DataPasses
							want.RowsScanned -= phase1.Stats.RowsScanned
							want.ShardsStreamed -= phase1.Stats.ShardsStreamed
							comparePairSections(t, got.Stats, want, true)
							if got.Stats.SpillBytes != want.SpillBytes {
								t.Errorf("budget %d: SpillBytes = %d, want %d", budget, got.Stats.SpillBytes, want.SpillBytes)
							}
							switch {
							case budget == 0:
								free = got
								if got.Stats.SpillRuns != 0 {
									t.Errorf("unbudgeted run spilled %d runs", got.Stats.SpillRuns)
								}
							case kernel == KernelScalar && (got.Stats.SpillRuns == 0 || got.Stats.SpillBytes == 0):
								t.Errorf("a 48 KiB budget over %d candidates spilled nothing", got.Stats.Candidates)
							case kernel == KernelPacked && got.Stats.PackedBatches < 2:
								t.Errorf("a 48 KiB budget packed %d candidates in %d batches", got.Stats.Candidates, got.Stats.PackedBatches)
							}
							if !reflect.DeepEqual(got.Pairs, free.Pairs) {
								t.Errorf("budgeted run found %d pairs, unbudgeted %d (or they differ)", len(got.Pairs), len(free.Pairs))
							}
						}
					})
				}
			}
		}
	}
}
