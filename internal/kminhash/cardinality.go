package kminhash

import "math"

// Cardinality estimation from bottom-k sketches, after Cohen's
// size-estimation framework [5] — the paper's own citation for the
// min-hash idea. If a set's rows receive uniform hash values in
// [0, 2^64) and v_k is the k-th smallest, then v_k/2^64 is the k-th
// order statistic of |C| uniforms, so (k-1)·2^64/v_k is an unbiased
// estimator of |C|. Sketches with fewer than k values contain every
// member, so their cardinality is exact.
//
// This is what makes the Section 7 Boolean-expression extension work:
// the bottom-k sketch of an OR of columns is computable from the
// columns' sketches (the k smallest distinct values of their union),
// its cardinality is estimable here, and AND cardinalities follow by
// inclusion-exclusion.

// EstimateCardinality returns the estimated number of distinct rows
// behind a bottom-k sketch produced with sketch size k. When the
// sketch holds fewer than k values it is the whole set and the count
// is exact.
func EstimateCardinality(sig []uint64, k int) float64 {
	if len(sig) < k || len(sig) == 0 {
		return float64(len(sig))
	}
	vk := sig[len(sig)-1] // sketches are sorted ascending
	if vk == 0 {
		return float64(len(sig))
	}
	frac := float64(vk) / math.Pow(2, 64)
	return float64(k-1) / frac
}
