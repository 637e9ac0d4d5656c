// Package candidate is the second phase of the paper's three-phase
// template: generating candidate column pairs from an in-memory sketch.
// kernel.go is its contract — one parameter set, one kernel per scheme
// serving any unit range, one rule for combining ranges — which every
// executor schedules: Row-Sorting over MH signatures (Section 3.1),
// Hash-Count over K-MH bottom-k sketches with the biased-then-unbiased
// estimator cascade of Section 3.2, and M-LSH's banding (Section 4.1),
// which is Row-Sorting over the bands' keys at one agreement.
// RowSortMH and HashCountKMH are the serial schedule of one full range.
//
// All three share the counting machinery of range.go. They avoid the
// O(m²) cost of examining every pair: work is
// proportional to the number of signature agreements, which is
// O(k·S̄·m²) where S̄ is the (typically tiny) average pairwise
// similarity. Both also use the paper's counter-reuse trick: one O(m)
// counter array shared across columns, resetting only entries that were
// actually touched.
package candidate

import (
	"context"

	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// Stats reports the work a generation algorithm performed; the counter
// increment count is the quantity the paper's running-time analysis
// bounds.
type Stats struct {
	Increments int64 // counter increments (the O(k·S̄·m²) term)
	Candidates int   // pairs emitted
}

// RowSortMH generates candidates from MH signatures by the Row-Sorting
// algorithm: each signature row is sorted by value, grouping equal
// min-hash values into runs; a pair is a candidate when it shares a run
// in at least ceil(cutoff*k) rows. cutoff is the required agreement
// fraction, typically (1-δ)s*.
func RowSortMH(sig *minhash.Signatures, cutoff float64) ([]pairs.Scored, Stats, error) {
	r, err := newMHRanger(context.Background(), sig, cutoff, 1)
	if err != nil {
		return nil, Stats{}, err
	}
	return all(r)
}

// all is the serial schedule: one range over every unit.
func all(r ranger) ([]pairs.Scored, Stats, error) {
	out, work := r.span(nil, 0, r.units())
	return out, Stats{Increments: work, Candidates: len(out)}, nil
}

// KMHOptions parameterises the K-MH candidate cascade of Section 3.2.
type KMHOptions struct {
	// BiasedCutoff is the similarity threshold applied to the cheap
	// biased estimator computed from |SIG_i ∩ SIG_j| during Hash-Count.
	// It should be set below the target threshold (the biased estimator
	// under-counts for unequal column sizes) — typically (1-δ)s* with a
	// generous δ.
	BiasedCutoff float64
	// UnbiasedCutoff is the threshold applied to the Theorem 2 unbiased
	// estimator, computed only for pairs surviving the biased filter.
	// Zero disables the second filter.
	UnbiasedCutoff float64
}

// HashCountKMH runs Hash-Count over bottom-k sketches: one bucket per
// observed min-hash value, accumulating |SIG_i ∩ SIG_j| for every pair
// sharing at least one value, then applying the biased filter and the
// unbiased Theorem 2 estimator to survivors. The returned Estimate is
// the unbiased one.
func HashCountKMH(s *kminhash.Sketches, opt KMHOptions) ([]pairs.Scored, Stats, error) {
	r, err := newKMHRanger(s, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return all(r)
}

// ceilFrac returns max(1, ceil(cutoff*k)).
func ceilFrac(cutoff float64, k int) int {
	n := int(cutoff * float64(k))
	if float64(n) < cutoff*float64(k) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
