package assocmine

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSignaturesRoundTrip: a sketch persists as the ingest snapshot
// it finishes from; the one LoadIngest restores finishes to the batch
// fold's estimates.
func TestSignaturesRoundTrip(t *testing.T) {
	d, _ := plantedDataset(t)
	s, err := ComputeSignatures(d, 40, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 40 || s.sig.M != d.NumCols() {
		t.Fatalf("metadata: k=%d m=%d", s.K(), s.sig.M)
	}
	in, err := NewIngest(MinHash, d.NumCols(), 40, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AppendRows(srcRows(t, d, 0, d.NumRows()), 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketch.ain")
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadIngest(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := restored.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != s.K() || restored.Seed() != 7 || loaded.sig.M != s.sig.M {
		t.Fatal("metadata did not round trip")
	}
	if !reflect.DeepEqual(loaded.sig.Vals, s.sig.Vals) {
		t.Fatal("signatures differ after round trip")
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
			sameStats(t, withCtx.Stats, plain.Stats)
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
