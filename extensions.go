package assocmine

import (
	"fmt"

	"assocmine/internal/cluster"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
)

// This file exposes the Section 7 extensions: mutual exclusion
// (anticorrelation), multi-way OR consequents, and the column
// clustering the paper's news experiment illustrates.

// Exclusion is a column pair that co-occurs far less than independence
// predicts (Lift = observed/expected co-occurrence, near 0 for mutual
// exclusion).
type Exclusion struct {
	I, J               int
	Expected, Observed float64
	Lift               float64
}

// ExclusionConfig controls MutualExclusions. A support floor is
// mandatory: extremely sparse columns are mutually exclusive by sheer
// chance (Section 7).
type ExclusionConfig struct {
	// MinSupport is the support-fraction floor for both columns.
	MinSupport float64
	// MaxLift is the reporting ceiling on observed/expected; default 0.2.
	MaxLift float64
	// UseSignatures estimates co-occurrence from a min-hash sketch (K
	// values, one signature pass) instead of exact counting; candidates
	// should then be re-checked if exactness matters.
	UseSignatures bool
	// K is the sketch size when UseSignatures is set; default 200.
	K int
	// Seed drives hashing when UseSignatures is set.
	Seed uint64
}

// MutualExclusions finds anticorrelated column pairs.
func MutualExclusions(d *Dataset, cfg ExclusionConfig) ([]Exclusion, error) {
	opt := rules.ExclusionOptions{MinSupport: cfg.MinSupport, MaxLift: cfg.MaxLift}
	var (
		raw []rules.Exclusion
		err error
	)
	if cfg.UseSignatures {
		k := cfg.K
		if k == 0 {
			k = 200
		}
		var sig *minhash.Signatures
		sig, err = minhash.Compute(d.m.Stream(), k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sizes := make([]int, d.m.NumCols())
		for c := range sizes {
			sizes[c] = d.m.ColumnSize(c)
		}
		raw, err = rules.MutualExclusionsFromSignatures(sig, sizes, d.m.NumRows(), opt)
	} else {
		raw, err = rules.MutualExclusions(d.m, opt)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Exclusion, len(raw))
	for i, x := range raw {
		out[i] = Exclusion{
			I: int(x.I), J: int(x.J),
			Expected: x.Expected, Observed: x.Observed, Lift: x.Lift,
		}
	}
	return out, nil
}

// OrSimilarityMulti estimates the similarity between column i and the
// disjunction of the given columns from one min-hash sketch (the
// signature of an OR of columns is the component-wise minimum of their
// signatures, Section 7). Useful for scoring a handful of candidate
// disjunctive rules; K defaults to 200.
func OrSimilarityMulti(d *Dataset, i int, js []int, k int, seed uint64) (float64, error) {
	if i < 0 || i >= d.m.NumCols() {
		return 0, fmt.Errorf("assocmine: column %d out of range", i)
	}
	for _, j := range js {
		if j < 0 || j >= d.m.NumCols() {
			return 0, fmt.Errorf("assocmine: column %d out of range", j)
		}
	}
	if k == 0 {
		k = 200
	}
	sig, err := minhash.Compute(d.m.Stream(), k, seed)
	if err != nil {
		return 0, err
	}
	return rules.OrSimilarityEstimateMulti(sig, i, js), nil
}

// Cluster groups a similar-pairs result over cols columns into column
// clusters: connected components of the similarity graph whose pairwise
// edge density is at least minDensity (use 0 for plain single-link
// components). This is the paper's "clusters of words" output — e.g.
// the chess-event cluster.
func Cluster(cols int, found []Pair, minDensity float64) [][]int {
	ps := make([]pairs.Pair, 0, len(found))
	for _, p := range found {
		if p.I == p.J {
			continue
		}
		ps = append(ps, pairs.Make(int32(p.I), int32(p.J)))
	}
	var raw [][]int32
	if minDensity > 0 {
		raw = cluster.DenseComponents(cols, ps, minDensity)
	} else {
		raw = cluster.Components(cols, ps)
	}
	out := make([][]int, len(raw))
	for i, comp := range raw {
		out[i] = make([]int, len(comp))
		for j, c := range comp {
			out[i][j] = int(c)
		}
	}
	return out
}
