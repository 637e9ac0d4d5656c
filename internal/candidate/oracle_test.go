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
	r, err := newHashCountMH(context.Background(), sig, cutoff, 1)
	if err != nil {
		return nil, Stats{}, err
	}
	return all(r)
}

// hashCountMH is a Row-Sorting ranger under the Hash-Count attribution:
// its span counts the earlier side of each column's runs, its column
// both sides, as Row-Sort's does.
type hashCountMH struct{ *mhRanger }

func newHashCountMH(ctx context.Context, sig *minhash.Signatures, cutoff float64, workers int) (hashCountMH, error) {
	r, err := newMHRanger(ctx, sig, cutoff, workers)
	return hashCountMH{r}, err
}

func (r hashCountMH) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), earlier)
	}
	return out, r.increments - before
}

func (r hashCountMH) fork() ranger { return hashCountMH{r.mhRanger.fork().(*mhRanger)} }

// bothSidesMH is the oracle of the MH scan's one-sided count: column i
// counts every other member of each of its runs, in one pass, and the
// scan keeps the pairs with j > i (the column, every pair). Its scan's
// work is twice Agreements().
type bothSidesMH struct{ *mhRanger }

func (r bothSidesMH) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), false)
	}
	return out, r.increments - before
}

func (r bothSidesMH) column(out []pairs.Scored, col int) ([]pairs.Scored, int64) {
	before := r.increments
	return r.unit(out, int32(col), true), r.increments - before
}

func (r bothSidesMH) fork() ranger { return bothSidesMH{r.mhRanger.fork().(*mhRanger)} }

func (r bothSidesMH) unit(out []pairs.Scored, i int32, whole bool) []pairs.Scored {
	k := r.ix.sk.MH.K
	for _, w := range r.ix.cells(int(i)) {
		if w == 0 {
			continue
		}
		for _, j := range r.ix.sorted[uint32(w) : w>>32] {
			if j == i {
				continue
			}
			if r.counts[j] == 0 {
				r.touched = append(r.touched, j)
			}
			r.counts[j]++
			r.increments++
		}
	}
	for _, j := range r.touched {
		if n := r.counts[j]; int(n) >= r.minAgree && (whole || j > i) {
			out = append(out, pairs.Scored{Pair: pairs.Make(i, j), Estimate: float64(n) / float64(k)})
		}
		r.counts[j] = 0
	}
	r.touched = r.touched[:0]
	return out
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
				if v := sig.Vals[l*sig.M+i]; v != minhash.Empty && v == sig.Vals[l*sig.M+j] {
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
