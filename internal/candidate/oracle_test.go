package candidate

import (
	"context"
	"fmt"

	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// HashCountMH generates the same candidate set as RowSortMH using the
// Hash-Count attribution: columns are processed in index order, each
// counting agreements against the earlier columns of its buckets only.
// The buckets are the Row-Sorting runs (a run lists its columns
// ascending, so "the columns already in the bucket" is a prefix). The
// second MH attribution of Section 3.1: an ablation and a matrix row,
// not a scheme the driver runs.
func HashCountMH(sig *minhash.Signatures, cutoff float64) ([]pairs.Scored, Stats, error) {
	r, err := newMHRanger(context.Background(), sig, cutoff, true, 1)
	if err != nil {
		return nil, Stats{}, err
	}
	return all(r)
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
			a := 0
			for l := 0; l < sig.K; l++ {
				if v := sig.Value(l, i); v != minhash.Empty && v == sig.Value(l, j) {
					a++
				}
			}
			if a >= minAgree {
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
