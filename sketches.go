package assocmine

import (
	"fmt"

	"assocmine/internal/candidate"
	"assocmine/internal/driver"
	"assocmine/internal/fold"
	"assocmine/internal/kminhash"
)

// Sketches is a precomputed bottom-k (K-MH) sketch of a dataset — the
// K-MinHash counterpart of Signatures. Computing the sketch is the
// expensive full-scan phase; a precomputed sketch is reused across
// queries with different thresholds, paying only the in-memory
// candidate phase plus one verification pass per query. It persists,
// like Signatures, as a KMinHash Ingest snapshot (AIN1). The sketch is
// immutable once returned. What a query needs of it and no threshold
// touches is built by the first query that needs it and kept with it:
// the Hash-Count index (12 bytes a value), and the intersection counts
// |SIG_i ∩ SIG_j| of every pair sharing a value (8 bytes a pair, while
// the bound fits 64 MiB), built by the first query that scans every
// column — SimilarPairsWith or TopPairsWith. Later scans only filter
// those counts; a TopColumnsWith query counts its column's pairs over
// the index.
type Sketches struct {
	sk     *kminhash.Sketches
	index  driver.Memo[*candidate.Index]
	counts driver.Memo[*candidate.Counts]
}

// ComputeSketches runs the K-MH phase 1 once — the same kernel
// SimilarPairs runs for KMinHash. Workers follow the Config.Workers
// semantic: 0 or 1 folds serially, negative means GOMAXPROCS, > 1
// shards the columns of the in-memory matrix across workers — with
// identical sketch content either way.
func ComputeSketches(d *Dataset, k int, seed uint64, workers int) (*Sketches, error) {
	sk, err := driver.Sketch(d.input(Config{Algorithm: KMinHash, K: k, Seed: seed, Workers: normalizeWorkers(workers)}))
	if err != nil {
		return nil, err
	}
	return newSketches(sk.KMH), nil
}

// newSketches wraps a finished sketch that keeps what fits memoLimit.
func newSketches(sk *kminhash.Sketches) *Sketches {
	return sketchesKeeping(sk, memoLimit)
}

// sketchesKeeping bounds the counts by limit.
func sketchesKeeping(sk *kminhash.Sketches, limit int64) *Sketches {
	s := &Sketches{sk: sk}
	s.counts.Limit = limit
	return s
}

// K returns the sketch size bound (columns smaller than K keep all
// their values).
func (s *Sketches) K() int { return s.sk.K }

// SimilarPairsWithSketches is SimilarPairsWith spelled for a bottom-k
// sketch.
func SimilarPairsWithSketches(d *Dataset, s *Sketches, cfg Config) (*Result, error) {
	return SimilarPairsWith(d, s, cfg)
}

// query implements Resident: KMinHash, whatever cfg.Algorithm says,
// over the sketch and its index.
func (s *Sketches) query(d *Dataset, cfg Config) (in driver.Input, _ Config, err error) {
	if len(s.sk.Sigs) != d.NumCols() {
		return in, cfg, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", len(s.sk.Sigs), d.NumCols())
	}
	if cfg.Algorithm != KMinHash && cfg.Algorithm != BruteForce {
		return in, cfg, fmt.Errorf("assocmine: precomputed bottom-k sketches support KMinHash, got %v", cfg.Algorithm)
	}
	cfg.Algorithm, cfg.K = KMinHash, s.sk.K
	err = cfg.setDefaults()
	in = d.input(cfg)
	in.Adopted = &driver.Adopted{Sketch: fold.Sketch{KMH: s.sk}, Index: &s.index, Counts: &s.counts}
	return in, cfg, err
}
