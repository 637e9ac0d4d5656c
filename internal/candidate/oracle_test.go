package candidate

import (
	"context"
	"fmt"
	"slices"

	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
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

// bandWalk is the M-LSH oracle: §4.1's banding as its own kernel. Each
// band keys every column that is not empty in all of the band's rows on
// the band key of its values there, a column at a time, sorts the
// (key, column) records into buckets and walks them for pairs, band by
// band; a pair
// colliding in several bands appears once for each, and a set of the
// pairs seen drops the repeats. Its layout is laid out on its own:
// disjoint bands of r consecutive rows when k >= r·l, else r rows of
// the k drawn per band from SplitMix64 at seed+1.
type bandWalk struct {
	sig  *minhash.Signatures
	rows [][]int
}

func newBandWalk(sig *minhash.Signatures, p Params) bandWalk {
	rows := make([][]int, p.L)
	rng := hashing.NewSplitMix64(p.Seed + 1)
	for b := range rows {
		if sig.K >= p.R*p.L {
			for i := range p.R {
				rows[b] = append(rows[b], b*p.R+i)
			}
		} else {
			rows[b] = rng.Perm(sig.K)[:p.R]
		}
	}
	return bandWalk{sig: sig, rows: rows}
}

// key is column c's bucket key in band b, and false for a column empty
// in all of the band's rows, which enters no bucket.
func (w bandWalk) key(b, c int) (uint64, bool) {
	m := w.sig.M
	var vals []uint64
	empty := true
	for _, l := range w.rows[b] {
		v := w.sig.Vals[l*m+c]
		empty = empty && v == minhash.Empty
		vals = append(vals, v)
	}
	h := hashing.KeyStart
	for _, v := range vals {
		h = h.Add(v)
	}
	return h.Sum(), !empty
}

// buckets is band b sorted: keys ascending, a bucket's columns
// ascending.
func (w bandWalk) buckets(b int) ([]uint64, []int32) {
	var keys []uint64
	var cols []int32
	for c := range w.sig.M {
		if key, ok := w.key(b, c); ok {
			keys, cols = append(keys, key), append(cols, int32(c))
		}
	}
	radix.SortByKey(keys, cols, make([]uint64, len(keys)), make([]int32, len(keys)))
	return keys, cols
}

// band appends band b's colliding pairs, in (I, J) order: each member
// of a bucket notes where the members after it lie, and a walk over the
// columns emits (c, later member).
func (w bandWalk) band(dst []pairs.Scored, b int) []pairs.Scored {
	keys, cols := w.buckets(b)
	next := make([]uint64, w.sig.M)
	start := 0
	for q := 1; q <= len(keys); q++ {
		if q < len(keys) && keys[q] == keys[start] {
			continue
		}
		for p := start; p+1 < q; p++ {
			next[cols[p]] = uint64(p+1) | uint64(q)<<32
		}
		start = q
	}
	for c, x := range next {
		for _, j := range cols[uint32(x) : x>>32] {
			dst = append(dst, pairs.Scored{Pair: pairs.Pair{I: int32(c), J: j}})
		}
	}
	return dst
}

// gathered is the walk over every band, each band's pairs less those of
// earlier bands (its fresh pairs, in band order) and the bucket pairs
// walked, repeats included.
func (w bandWalk) gathered() (fresh [][]pairs.Scored, bucketPairs int64) {
	seen := pairs.NewSet(1024)
	for b := range w.rows {
		all := w.band(nil, b)
		bucketPairs += int64(len(all))
		var f []pairs.Scored
		for _, p := range all {
			if seen.Add(p.I, p.J) {
				f = append(f, p)
			}
		}
		fresh = append(fresh, f)
	}
	return fresh, bucketPairs
}

// column is every pair sharing a bucket with col in some band, each
// once, and the (band, column) collisions found: one search for col's
// key per band.
func (w bandWalk) column(col int) ([]pairs.Scored, int64) {
	var out []pairs.Scored
	var collisions int64
	met := make([]bool, w.sig.M)
	for b := range w.rows {
		want, ok := w.key(b, col)
		if !ok {
			continue
		}
		keys, cols := w.buckets(b)
		q, _ := slices.BinarySearch(keys, want)
		for ; q < len(keys) && keys[q] == want; q++ {
			if c := cols[q]; int(c) != col {
				collisions++
				if !met[c] {
					met[c] = true
					out = append(out, pairs.Scored{Pair: pairs.Make(int32(col), c)})
				}
			}
		}
	}
	return out, collisions
}
