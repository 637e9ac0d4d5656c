package assocmine

import (
	"fmt"
	"os"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/kminhash"
)

// Sketches is a precomputed bottom-k (K-MH) sketch of a dataset — the
// K-MinHash counterpart of Signatures. Computing the sketch is the
// expensive full-scan phase; a persisted sketch can be reused across
// queries with different thresholds, paying only the in-memory
// candidate phase plus one verification pass per query. The sketch is
// immutable once returned; the Hash-Count index over it is built by the
// first query and kept with it (12 bytes a value), so later queries
// only count.
type Sketches struct {
	sk    *kminhash.Sketches
	seed  uint64
	rows  int // dataset row count, -1 when unknown (loaded sketches)
	index memo[*candidate.Index]
}

// ComputeSketches runs the K-MH phase 1 once — the same kernel
// SimilarPairs runs for KMinHash. Workers follow the Config.Workers
// semantic: 0 or 1 folds serially, negative means GOMAXPROCS, > 1
// shards the columns of the in-memory matrix across workers — with
// identical sketch content either way.
func ComputeSketches(d *Dataset, k int, seed uint64, workers int) (*Sketches, error) {
	sk, err := d.run(Config{Algorithm: KMinHash, K: k, Seed: seed, Workers: normalizeWorkers(workers)}).sketch(nil)
	if err != nil {
		return nil, err
	}
	return &Sketches{sk: sk.KMH, seed: seed, rows: d.NumRows()}, nil
}

// K returns the sketch size bound (columns smaller than K keep all
// their values).
func (s *Sketches) K() int { return s.sk.K }

// NumCols returns the number of columns sketched.
func (s *Sketches) NumCols() int { return len(s.sk.Sigs) }

// Seed returns the seed the sketch was computed with.
func (s *Sketches) Seed() uint64 { return s.seed }

// Estimate returns the unbiased union-signature similarity estimate for
// columns i and j (Theorem 2).
func (s *Sketches) Estimate(i, j int) float64 { return s.sk.UnbiasedEstimate(i, j) }

// Save persists the sketch in the compressed KMC1 format (each value
// stored as its row id in a few bits), loading back bit-identical
// through LoadSketches. Only sketches whose dataset row count is known
// (ComputeSketches, Ingest) can be saved; loaded sketches cannot be
// re-saved.
func (s *Sketches) Save(path string) error {
	if s.rows < 0 {
		return fmt.Errorf("assocmine: sketch row count unknown; only sketches from ComputeSketches can be saved")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.sk.WriteCompressed(f, s.seed, s.rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSketches reads a sketch written by Save.
func LoadSketches(path string) (*Sketches, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sk, seed, err := kminhash.ReadSketches(f)
	if err != nil {
		return nil, err
	}
	return &Sketches{sk: sk, seed: seed, rows: -1}, nil
}

// SimilarPairsWithSketches is SimilarPairsWith spelled for a bottom-k
// sketch.
func SimilarPairsWithSketches(d *Dataset, s *Sketches, cfg Config) (*Result, error) {
	return SimilarPairsWith(d, s, cfg)
}

// query implements Resident: KMinHash, whatever cfg.Algorithm says,
// over the sketch and its index.
func (s *Sketches) query(d *Dataset, cfg Config) (*run, *adopted, error) {
	if len(s.sk.Sigs) != d.NumCols() {
		return nil, nil, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", len(s.sk.Sigs), d.NumCols())
	}
	if cfg.Algorithm != KMinHash && cfg.Algorithm != BruteForce {
		return nil, nil, fmt.Errorf("assocmine: precomputed bottom-k sketches support KMinHash, got %v", cfg.Algorithm)
	}
	cfg.Algorithm = KMinHash
	cfg.K = s.sk.K
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	return d.run(cfg), &adopted{Sketch: fold.Sketch{KMH: s.sk}, index: &s.index}, nil
}
