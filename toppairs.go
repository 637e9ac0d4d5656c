package assocmine

import (
	"fmt"

	"assocmine/internal/obs"
)

// TopPairs returns the n most similar column pairs without requiring
// the caller to guess a threshold: it runs the configured algorithm at
// cfg.Threshold and, when fewer than n pairs clear it, geometrically
// lowers the threshold and re-queries until n pairs are found or the
// floor is hit. cfg.Threshold acts as the starting point (default 0.9);
// minThreshold bounds the search from below (default 0.05 — below
// that, the near-zero mass makes "top pairs" meaningless on sparse
// data).
//
// Every attempt is a complete run — signature scan, candidates, verify
// — so on a large dataset, or when the threshold is expected to drop
// several times, compute the sketch once (ComputeSignatures,
// ComputeSketches) and use TopPairsWithSignatures/TopPairsWithSketches.
// cfg.Workers carries through to every retry, parallelising all three
// phases of each attempt.
func TopPairs(d *Dataset, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairs(d, c)
	})
}

// TopPairsWithSignatures is TopPairs answered from a resident min-hash
// sketch: every threshold-lowering retry reruns only the in-memory
// candidate scan — over the sketch's one index for MinHash — plus one
// verification pass, never the signature scan. cfg.Algorithm must be
// MinHash or MinLSH (the schemes SimilarPairsWithSignatures supports).
func TopPairsWithSignatures(d *Dataset, s *Signatures, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairsWithSignatures(d, s, c)
	})
}

// TopPairsWithSketches is TopPairs answered from a resident bottom-k
// sketch via SimilarPairsWithSketches (cfg.Algorithm is forced to
// KMinHash).
func TopPairsWithSketches(d *Dataset, s *Sketches, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairsWithSketches(d, s, c)
	})
}

// TopColumnsWithSignatures returns the n columns most similar to col,
// as pairs containing col, answered from a resident min-hash sketch
// with the same threshold-lowering search as TopPairs. Each attempt
// asks the kernel for col's candidates alone — a count over col's own
// runs (a key comparison per band for MinLSH), then a verification of
// at most m-1 pairs — not for every pair of the matrix. Pairs are
// ordered by decreasing verified similarity.
func TopColumnsWithSignatures(d *Dataset, s *Signatures, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topColumns(d, s, col, n, cfg, minThreshold)
}

// TopColumnsWithSketches is TopColumnsWithSignatures over a resident
// bottom-k sketch (cfg.Algorithm is forced to KMinHash).
func TopColumnsWithSketches(d *Dataset, s *Sketches, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topColumns(d, s, col, n, cfg, minThreshold)
}

// resident is a precomputed sketch queries are answered from:
// *Signatures or *Sketches.
type resident interface {
	query(d *Dataset, cfg Config) (*run, *adopted, error)
}

// topColumns is the TopColumns search over either sketch: the driver's
// four steps with phase 2 restricted to col.
func topColumns(d *Dataset, s resident, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	if col < 0 || col >= d.NumCols() {
		return nil, fmt.Errorf("assocmine: column %d out of range [0,%d)", col, d.NumCols())
	}
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		r, pre, err := s.query(d, c)
		if err != nil {
			return nil, err
		}
		r.column = col
		return r.mine(pre)
	})
}

// topLoop is the shared threshold-lowering search: query at
// cfg.Threshold and geometrically lower the threshold until n pairs are
// found or minThreshold is hit. Validation and retry accounting are
// identical for every TopPairs/TopColumns variant.
func topLoop(n int, cfg Config, minThreshold float64, query func(Config) (*Result, error)) ([]Pair, error) {
	if n <= 0 {
		return nil, fmt.Errorf("assocmine: TopPairs needs n > 0, got %d", n)
	}
	if minThreshold == 0 {
		minThreshold = 0.05
	}
	if minThreshold < 0 || minThreshold > 1 {
		return nil, fmt.Errorf("assocmine: minThreshold must be in (0,1], got %v", minThreshold)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.9
	}
	if cfg.Threshold < minThreshold {
		return nil, fmt.Errorf("assocmine: starting threshold %v below floor %v", cfg.Threshold, minThreshold)
	}
	rec := obs.OrNop(cfg.Recorder)
	for {
		rec.Add(obs.CounterTopPairsAttempts, 1)
		res, err := query(cfg)
		if err != nil {
			return nil, err
		}
		if len(res.Pairs) >= n {
			return res.Pairs[:n], nil
		}
		if cfg.Threshold <= minThreshold {
			// Floor reached: return everything found.
			return res.Pairs, nil
		}
		cfg.Threshold *= 0.7
		if cfg.Threshold < minThreshold {
			cfg.Threshold = minThreshold
		}
	}
}
