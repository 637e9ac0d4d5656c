package assocmine

import (
	"fmt"

	"assocmine/internal/driver"
	"assocmine/internal/pairs"
)

// Resident is a precomputed sketch queries are answered from —
// *Signatures or *Sketches, the only implementations — with the
// phase-2 index it memoises. SimilarPairsWith, TopPairsWith and
// TopColumnsWith run the driver's four steps with the sketch adopted
// in place of the phase-1 fold.
type Resident interface {
	// query checks cfg against the sketch and returns the driver Input
	// of a query answered from it, with cfg's defaults applied.
	query(d *Dataset, cfg Config) (driver.Input, Config, error)
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
	in, cfg, err := s.query(d, cfg)
	if err != nil {
		return nil, err
	}
	return similar(in, cfg, driver.Mine)
}

// TopPairsWith returns the n most similar column pairs without
// requiring the caller to guess a threshold: it answers at
// cfg.Threshold (default 0.9) and, when fewer than n pairs clear it,
// lowers the threshold geometrically (×0.7) until n pairs are found or
// minThreshold (default 0.05; below it the near-zero mass makes "top
// pairs" meaningless on sparse data) is hit. It is one search over the
// resident sketch: the candidate scan runs once, and each step admits
// of its hits what a query at that threshold would emit and verifies —
// one pass over d — only what no earlier step did. The pairs are those
// of the retry loop over SimilarPairsWith, field for field.
func TopPairsWith(d *Dataset, s Resident, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	return search(d, s, -1, n, cfg, minThreshold)
}

// TopColumnsWith returns the n columns most similar to col, as pairs
// containing col, by the same search as TopPairsWith. Its one scan asks
// the kernel for col's candidates alone — a count over col's own runs (a
// search of each band's buckets for MinLSH), then verifications of at
// most m-1 pairs in all. Pairs are ordered by decreasing verified
// similarity.
func TopColumnsWith(d *Dataset, s Resident, col, n int, cfg Config, minThreshold float64) ([]Pair, error) {
	if col < 0 || col >= d.NumCols() {
		return nil, fmt.Errorf("assocmine: column %d out of range [0,%d)", col, d.NumCols())
	}
	return search(d, s, col, n, cfg, minThreshold)
}

// ladder checks a threshold-lowering search's arguments and fills its
// defaults in: the start (cfg.Threshold, 0.9) and the floor (0.05).
func ladder(n int, cfg *Config, minThreshold *float64) error {
	if n <= 0 {
		return fmt.Errorf("assocmine: a top-n search needs n > 0, got %d", n)
	}
	if *minThreshold == 0 {
		*minThreshold = 0.05
	}
	if *minThreshold < 0 || *minThreshold > 1 {
		return fmt.Errorf("assocmine: minThreshold must be in (0,1], got %v", *minThreshold)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.9
	}
	if cfg.Threshold < *minThreshold {
		return fmt.Errorf("assocmine: starting threshold %v below floor %v", cfg.Threshold, *minThreshold)
	}
	return nil
}

// search is TopPairsWith and TopColumnsWith: the driver's one-run
// search of the threshold ladder over the resident sketch (col < 0:
// every pair, else the pairs containing col).
func search(d *Dataset, s Resident, col, n int, cfg Config, floor float64) ([]Pair, error) {
	if err := ladder(n, &cfg, &floor); err != nil {
		return nil, err
	}
	in, cfg, err := s.query(d, cfg)
	if err != nil {
		return nil, err
	}
	in.Column = col
	res, err := similar(in, cfg, func(in driver.Input) ([]pairs.Scored, error) {
		return driver.Search(in, n, floor)
	})
	if err != nil {
		return nil, err
	}
	return res.Pairs, nil
}
