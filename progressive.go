package assocmine

import (
	"fmt"

	"assocmine/internal/driver"
	"assocmine/internal/pairs"
)

// Progress describes one band of a progressive Min-LSH run.
type Progress struct {
	// Band is the 0-based index of the band just processed; Bands is
	// the total.
	Band, Bands int
	// Fresh holds the newly discovered pairs of this band, verified
	// exactly (Similarity filled, pairs below threshold already
	// removed).
	Fresh []Pair
	// TotalFound is the number of verified pairs accumulated so far.
	TotalFound int
}

// ProgressiveSimilarPairs runs Min-LSH band by band, delivering each
// band's newly found (and exactly verified) pairs to fn as they
// surface — the online framework of Section 4: each band cuts the
// remaining false negatives by a fixed factor, the most similar pairs
// tend to appear first, and the user can stop at any time by returning
// false from fn. The pairs accumulated up to the stop are returned.
//
// cfg.Algorithm must be MinLSH (or zero, which is treated as MinLSH
// here); cfg.K must be at least R*L. The signature phase, each band's
// verification (MemoryBudget, Workers, Context) and the Stats
// accounting are the SimilarPairs driver's own steps, and the banding is
// its M-LSH index read one band at a time, each band's fresh pairs being
// those its buckets hold and no earlier band's did — that ordering is
// the point of the API — so DataPasses counts the signature pass plus
// one pass per band that found fresh pairs. cfg.Window restricts the
// run to the trailing rows, like SimilarPairs.
func ProgressiveSimilarPairs(d *Dataset, cfg Config, fn func(Progress) bool) (*Result, error) {
	if cfg.Algorithm != MinLSH && cfg.Algorithm != BruteForce {
		return nil, fmt.Errorf("assocmine: progressive mining requires MinLSH, got %v", cfg.Algorithm)
	}
	cfg.Algorithm = MinLSH
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.K < cfg.R*cfg.L {
		return nil, fmt.Errorf("assocmine: progressive mining needs K >= R*L (%d >= %d)", cfg.K, cfg.R*cfg.L)
	}
	if fn == nil {
		return nil, fmt.Errorf("assocmine: progressive mining requires a callback")
	}
	return similar(d.input(cfg), cfg, func(in driver.Input) ([]pairs.Scored, error) {
		return driver.Progressive(in, func(band int, fresh []pairs.Scored, found int) bool {
			return fn(Progress{Band: band, Bands: cfg.L, Fresh: toPairs(fresh), TotalFound: found})
		})
	})
}
