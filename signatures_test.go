package assocmine

import (
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
// seed and K.
func TestSimilarPairsWithSignaturesMatchesDirect(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 60, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
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
		if len(direct.Pairs) != len(fromSketch.Pairs) {
			t.Fatalf("%v: %d pairs direct, %d from sketch",
				cfg.Algorithm, len(direct.Pairs), len(fromSketch.Pairs))
		}
		for i := range direct.Pairs {
			if direct.Pairs[i] != fromSketch.Pairs[i] {
				t.Fatalf("%v: pair %d differs", cfg.Algorithm, i)
			}
		}
		if fromSketch.Stats.SignatureTime != 0 {
			t.Errorf("%v: sketch-based query claims signature time", cfg.Algorithm)
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

// TestPrecomputedSketchesHonourMemoryBudget: the precomputed-sketch
// entry points pass Config.MemoryBudget to the verification pass like
// SimilarPairs does — a budget below the counter table spills, and
// the pairs stay bit-identical to the unbudgeted run.
func TestPrecomputedSketchesHonourMemoryBudget(t *testing.T) {
	d, _ := plantedDataset(t)
	sig, err := ComputeSignatures(d, 60, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 60, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]func(Config) (*Result, error){
		"mh": func(cfg Config) (*Result, error) {
			cfg.Algorithm = MinHash
			return SimilarPairsWithSignatures(d, sig, cfg)
		},
		"mlsh": func(cfg Config) (*Result, error) {
			cfg.Algorithm, cfg.R, cfg.L = MinLSH, 1, 20 // one-row bands: thousands of candidates
			return SimilarPairsWithSignatures(d, sig, cfg)
		},
		"kmh": func(cfg Config) (*Result, error) {
			cfg.Algorithm = KMinHash
			return SimilarPairsWithSketches(d, sk, cfg)
		},
	}
	for name, query := range queries {
		// Delta 0.9 floods verification with candidates.
		cfg := Config{Threshold: 0.3, Delta: 0.9, Seed: 5}
		free, err := query(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(free.Pairs) == 0 || free.Stats.SpillRuns != 0 {
			t.Fatalf("%s: unbudgeted run found %d pairs, spilled %d runs", name, len(free.Pairs), free.Stats.SpillRuns)
		}
		cfg.MemoryBudget, cfg.SpillDir = 48<<10, t.TempDir()
		tight, err := query(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tight.Stats.SpillRuns == 0 || tight.Stats.SpillBytes == 0 {
			t.Errorf("%s: a 48 KiB budget over %d candidates spilled nothing", name, tight.Stats.Candidates)
		}
		if !reflect.DeepEqual(tight.Pairs, free.Pairs) {
			t.Errorf("%s: budgeted run found %d pairs, unbudgeted %d (or they differ)", name, len(tight.Pairs), len(free.Pairs))
		}
	}
}
