// Package candidate implements the second phase of the paper's
// three-phase template: generating candidate column pairs from
// in-memory signatures. It provides the two Section 3.1 algorithms —
// Row-Sorting and Hash-Count — for MH signatures, the Hash-Count
// variant for K-MH bottom-k sketches with the biased-then-unbiased
// estimator cascade of Section 3.2, and a brute-force generator used as
// a correctness oracle and ablation baseline.
//
// Both algorithms avoid the O(m²) cost of examining every pair: work is
// proportional to the number of signature agreements, which is
// O(k·S̄·m²) where S̄ is the (typically tiny) average pairwise
// similarity. Both also use the paper's counter-reuse trick: one O(m)
// counter array shared across columns, resetting only entries that were
// actually touched.
package candidate

import (
	"context"
	"fmt"

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
	return scanMH(context.Background(), sig, cutoff, false, 1, nil)
}

// HashCountMH generates the same candidate set as RowSortMH using the
// Hash-Count attribution: columns are processed in index order, each
// counting agreements against the earlier columns of its buckets only.
// The buckets are the Row-Sorting runs (a run lists its columns
// ascending, so "the columns already in the bucket" is a prefix).
func HashCountMH(sig *minhash.Signatures, cutoff float64) ([]pairs.Scored, Stats, error) {
	return scanMH(context.Background(), sig, cutoff, true, 1, nil)
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
	return HashCountKMHParallelProgress(context.Background(), s, opt, 1, nil)
}

// BruteForceMH enumerates all column pairs against the MH agreement
// threshold in O(k·m²). It is the oracle the faster generators are
// tested against and the ablation baseline for the counter-reuse
// benchmarks.
func BruteForceMH(sig *minhash.Signatures, cutoff float64) ([]pairs.Scored, Stats, error) {
	if cutoff <= 0 || cutoff > 1 {
		return nil, Stats{}, fmt.Errorf("candidate: cutoff must be in (0,1], got %v", cutoff)
	}
	minAgree := ceilFrac(cutoff, sig.K)
	var st Stats
	var out []pairs.Scored
	for i := 0; i < sig.M; i++ {
		for j := i + 1; j < sig.M; j++ {
			st.Increments += int64(sig.K)
			if a := sig.Agreement(i, j); a >= minAgree {
				out = append(out, pairs.Scored{
					Pair:     pairs.Make(int32(i), int32(j)),
					Estimate: float64(a) / float64(sig.K),
				})
			}
		}
	}
	st.Candidates = len(out)
	return out, st, nil
}

// BruteForceKMH enumerates all pairs with the Theorem 2 unbiased
// estimator in O(k·m²); oracle for HashCountKMH's recall.
func BruteForceKMH(s *kminhash.Sketches, cutoff float64) ([]pairs.Scored, Stats, error) {
	if cutoff <= 0 || cutoff > 1 {
		return nil, Stats{}, fmt.Errorf("candidate: cutoff must be in (0,1], got %v", cutoff)
	}
	m := len(s.Sigs)
	var st Stats
	var out []pairs.Scored
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			st.Increments += int64(s.K)
			if est := s.UnbiasedEstimate(i, j); est >= cutoff {
				out = append(out, pairs.Scored{
					Pair:     pairs.Make(int32(i), int32(j)),
					Estimate: est,
				})
			}
		}
	}
	st.Candidates = len(out)
	return out, st, nil
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
