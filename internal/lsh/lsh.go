// Package lsh implements the Min-LSH (M-LSH) scheme of Section 4.1:
// the k x m min-hash matrix is split into l bands of r rows; within
// each band every column is hashed on the concatenation of its r
// values, and columns sharing a bucket in at least one band become
// candidates. The collision probability for a pair with similarity s is
// the S-shaped filter function P_{r,l}(s) = 1 - (1 - s^r)^l.
//
// The package also implements the sampled variant Q_{r,l,k} (bands draw
// r values at random from only k available min-hashes, k < r·l), the
// input-sensitive (r, l) optimizer that minimizes l·r subject to
// expected false-negative and false-positive budgets over a similarity
// distribution, and the online band-at-a-time mode of Section 4.
package lsh

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// ProbAtLeastOnce returns P_{r,l}(s) = 1 - (1 - s^r)^l, the probability
// that two columns with similarity s collide in at least one of l bands
// of r rows (Lemma 2).
func ProbAtLeastOnce(s float64, r, l int) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(l))
}

// SampledCollisionGivenAgreement returns q_{r,l,k}(d) = 1-(1-(d/k)^r)^l,
// the collision probability when the pair agrees on exactly d of the k
// available min-hash values and each band samples r of them.
func SampledCollisionGivenAgreement(d, k, r, l int) float64 {
	if d <= 0 {
		return 0
	}
	if d >= k {
		return 1
	}
	return ProbAtLeastOnce(float64(d)/float64(k), r, l)
}

// SampledCollisionProb returns Q_{r,l,k}(s): the collision probability
// of a similarity-s pair under the sampled-band scheme, obtained by
// summing q_{r,l,k}(d) over the Binomial(k, s) distribution of the
// agreement count d.
func SampledCollisionProb(s float64, r, l, k int) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	// pmf(d) computed iteratively to avoid large binomials.
	pmf := math.Pow(1-s, float64(k)) // d = 0
	q := 0.0
	for d := 1; d <= k; d++ {
		pmf *= float64(k-d+1) / float64(d) * s / (1 - s)
		q += pmf * SampledCollisionGivenAgreement(d, k, r, l)
	}
	return q
}

// Stats reports the work the banding pass performed.
type Stats struct {
	Bands       int   // bands hashed
	BucketPairs int64 // pair-additions attempted (incl. duplicates)
	Candidates  int   // distinct pairs produced
}

// Candidates runs the basic M-LSH banding over the signature matrix
// using l disjoint bands of r consecutive rows; sig.K must be at least
// r*l. Empty columns never enter buckets.
func Candidates(sig *minhash.Signatures, r, l int) (*pairs.Set, Stats, error) {
	if err := checkRL(r, l); err != nil {
		return nil, Stats{}, err
	}
	if sig.K < r*l {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d (use SampledCandidates)", r*l, sig.K)
	}
	return bandCandidates(sig, disjointBands(r, l), nil)
}

// SampledCandidates runs the Q_{r,l,k} variant: each of the l bands
// hashes on r values drawn uniformly (without replacement) from the k
// available, so the same value may participate in several bands.
// Requires sig.K >= r.
func SampledCandidates(sig *minhash.Signatures, r, l int, seed uint64) (*pairs.Set, Stats, error) {
	if err := checkRL(r, l); err != nil {
		return nil, Stats{}, err
	}
	if sig.K < r {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r = %d min-hash values, have %d", r, sig.K)
	}
	return bandCandidates(sig, sampledBands(sig.K, r, l, seed), nil)
}

// OnlineCandidates processes bands one at a time, invoking progress
// after each band with the band index and the pairs newly discovered in
// it; returning false from progress stops the scan early (the Section 4
// online framework: each band cuts false negatives by a fixed factor,
// and the most similar pairs tend to surface first). The partial
// candidate set accumulated so far is returned.
func OnlineCandidates(sig *minhash.Signatures, r, l int, progress func(band int, fresh []pairs.Pair) bool) (*pairs.Set, Stats, error) {
	if err := checkRL(r, l); err != nil {
		return nil, Stats{}, err
	}
	if sig.K < r*l {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d", r*l, sig.K)
	}
	return bandCandidates(sig, disjointBands(r, l), progress)
}

func checkRL(r, l int) error {
	if r <= 0 || l <= 0 {
		return fmt.Errorf("lsh: r and l must be positive, got r=%d l=%d", r, l)
	}
	return nil
}

// disjointBands returns the basic layout: l bands of r consecutive
// signature rows.
func disjointBands(r, l int) [][]int {
	bands := make([][]int, l)
	for b := 0; b < l; b++ {
		rows := make([]int, r)
		for i := range rows {
			rows[i] = b*r + i
		}
		bands[b] = rows
	}
	return bands
}

// sampledBands returns the Q_{r,l,k} layout: each band draws r of the k
// values without replacement. The sequential RNG makes the layout a
// pure function of (k, r, l, seed), shared by the serial and parallel
// paths.
func sampledBands(k, r, l int, seed uint64) [][]int {
	rng := hashing.NewSplitMix64(seed)
	bands := make([][]int, l)
	for b := 0; b < l; b++ {
		bands[b] = rng.Perm(k)[:r]
	}
	return bands
}

// bander hashes one band at a time: the band kernel shared by the
// serial, parallel and band-range drivers, with scratch reused across
// bands. One per goroutine.
type bander struct {
	sig        *minhash.Signatures
	vals       []uint64 // one column's r values
	keys       []uint64
	cols       []int32
	keyScratch []uint64
	colScratch []int32
	next       []uint64 // per column: where the rest of its bucket starts and ends in cols
}

func newBander(sig *minhash.Signatures) *bander {
	return &bander{
		sig:        sig,
		keys:       make([]uint64, 0, sig.M),
		cols:       make([]int32, 0, sig.M),
		keyScratch: make([]uint64, sig.M),
		colScratch: make([]int32, sig.M),
		next:       make([]uint64, sig.M),
	}
}

// band appends to dst the colliding pairs of the band over the given
// signature rows, sorted by (I, J): every column with a non-empty
// value is keyed on CombineKeys of its r values, the (key, column)
// records are radix-sorted, and each run of equal keys — a bucket,
// columns ascending — yields its pairs. Buckets partition the columns,
// so the pairs are distinct and their number is the band's BucketPairs.
func (b *bander) band(rows []int, dst []pairs.Pair) []pairs.Pair {
	m := b.sig.M
	keys, cols := b.keys[:0], b.cols[:0]
	for c := 0; c < m; c++ {
		b.vals = b.vals[:0]
		empty := true
		for _, l := range rows {
			v := b.sig.Vals[l*m+c]
			if v != minhash.Empty {
				empty = false
			}
			b.vals = append(b.vals, v)
		}
		if !empty {
			keys, cols = append(keys, hashing.CombineKeys(b.vals)), append(cols, int32(c))
		}
	}
	radix.SortByKey(keys, cols, b.keyScratch, b.colScratch)
	// Emitting bucket by bucket would order the pairs by key. Instead
	// each member of a bucket notes where the members after it lie, and
	// a walk over the columns emits (c, later member) in (I, J) order.
	start := 0
	for q := 1; q <= len(keys); q++ {
		if q < len(keys) && keys[q] == keys[start] {
			continue
		}
		for p := start; p+1 < q; p++ {
			b.next[cols[p]] = uint64(p+1) | uint64(q)<<32
		}
		start = q
	}
	for c, w := range b.next {
		if w == 0 {
			continue
		}
		b.next[c] = 0
		for _, j := range cols[uint32(w) : w>>32] {
			dst = append(dst, pairs.Pair{I: int32(c), J: j})
		}
	}
	return dst
}

func bandCandidates(sig *minhash.Signatures, bands [][]int, progress func(int, []pairs.Pair) bool) (*pairs.Set, Stats, error) {
	set := pairs.NewSet(1024)
	var st Stats
	bd := newBander(sig)
	var collide, fresh []pairs.Pair
	for b, rows := range bands {
		st.Bands++
		collide = bd.band(rows, collide[:0])
		st.BucketPairs += int64(len(collide))
		fresh = fresh[:0]
		for _, p := range collide {
			if set.Add(p.I, p.J) {
				fresh = append(fresh, p)
			}
		}
		if progress != nil && !progress(b, fresh) {
			break
		}
	}
	st.Candidates = set.Len()
	return set, st, nil
}
