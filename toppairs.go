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
// ComputeSketches) and use TopPairsWith.
// cfg.Workers carries through to every retry, parallelising all three
// phases of each attempt.
func TopPairs(d *Dataset, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairs(d, c)
	})
}

// Resident is a precomputed sketch queries are answered from —
// *Signatures or *Sketches, the only implementations — with the
// phase-2 index it memoises. SimilarPairsWith, TopPairsWith and
// TopColumnsWith run the driver's four steps with the sketch adopted
// in place of the phase-1 fold.
type Resident interface {
	// query checks cfg against the sketch and returns the driver of one
	// query answered from it, with the sketch to adopt.
	query(d *Dataset, cfg Config) (*run, *adopted, error)
}

// SimilarPairsWith answers a similar-pairs query from a precomputed
// sketch of d, skipping the signature pass entirely: the in-memory
// candidate phase over the sketch's index — built by the first query
// that needs it and reused by every later one — plus one verification
// pass over d, or over its trailing cfg.Window rows when a sliding
// window is set, for sketches that cover only that window. A
// *Signatures answers MinHash (Row-Sorting) and MinLSH (banding;
// requires R*L <= the sketch's K); a *Sketches answers KMinHash
// (Hash-Count; cfg.Algorithm may be left zero — it is forced).
func SimilarPairsWith(d *Dataset, s Resident, cfg Config) (*Result, error) {
	r, pre, err := s.query(d, cfg)
	if err != nil {
		return nil, err
	}
	return r.similar(pre)
}

// TopPairsWith is TopPairs answered from a resident sketch: every
// threshold-lowering retry reruns only SimilarPairsWith's in-memory
// candidate scan plus one verification pass, never the signature scan.
func TopPairsWith(d *Dataset, s Resident, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		return SimilarPairsWith(d, s, c)
	})
}

// TopColumnsWith returns the n columns most similar to col, as pairs
// containing col, answered from a resident sketch with the same
// threshold-lowering search as TopPairs. Each attempt asks the kernel
// for col's candidates alone — a count over col's own runs (a key
// comparison per band for MinLSH), then a verification of at most m-1
// pairs — not for every pair of the matrix. Pairs are ordered by
// decreasing verified similarity.
func TopColumnsWith(d *Dataset, s Resident, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	if col < 0 || col >= d.NumCols() {
		return nil, fmt.Errorf("assocmine: column %d out of range [0,%d)", col, d.NumCols())
	}
	return topLoop(n, cfg, minThreshold, func(c Config) (*Result, error) {
		r, pre, err := s.query(d, c)
		if err != nil {
			return nil, err
		}
		r.column = col
		return r.similar(pre)
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
