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
// distribution.
//
// Banding is one kernel, Bands: a band layout over a signature matrix
// whose Range hashes any range of bands. Bands are independent by
// construction (Lemma 2 — each hashes its own rows and contributes
// candidates on its own), so band ranges are what phase 2's schedulers
// (internal/candidate) deal out: to goroutines, to the band-at-a-time
// online mode of Section 4, to dist workers. Candidates is the serial
// schedule of one range.
package lsh

import (
	"context"
	"fmt"
	"math"
	"slices"

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

// sampledCollisionGivenAgreement returns q_{r,l,k}(d) = 1-(1-(d/k)^r)^l,
// the collision probability when the pair agrees on exactly d of the k
// available min-hash values and each band samples r of them.
func sampledCollisionGivenAgreement(d, k, r, l int) float64 {
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
		q += pmf * sampledCollisionGivenAgreement(d, k, r, l)
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
	b, err := Disjoint(sig, r, l)
	if err != nil {
		return nil, Stats{}, err
	}
	collide, bucketPairs := b.Range(nil, 0, l)
	set := pairs.NewSet(1024)
	for _, p := range collide {
		set.Add(p.I, p.J)
	}
	return set, Stats{Bands: l, BucketPairs: bucketPairs, Candidates: set.Len()}, nil
}

// Bands is the banding kernel: a band layout over a signature matrix,
// shared read-only between forks, plus one goroutine's scratch, reused
// across bands. A band is sorted into buckets — which depends on the
// layout alone — then walked for pairs; a kernel sorts each band as a
// range or a column reaches it unless it holds what Keep sorted once.
type Bands struct {
	sig  *minhash.Signatures
	rows [][]int // band b hashes on signature rows rows[b]
	kept *buckets

	vals       []uint64 // one column's r values
	keys       []uint64
	cols       []int32
	keyScratch []uint64
	colScratch []int32
	next       []uint64 // per column: where the rest of its bucket starts and ends in cols
}

// Disjoint lays out the basic scheme: l bands of r consecutive
// signature rows; sig.K must be at least r*l.
func Disjoint(sig *minhash.Signatures, r, l int) (*Bands, error) {
	if err := checkRL(r, l); err != nil {
		return nil, err
	}
	if sig.K < r*l {
		return nil, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d (use the sampled layout)", r*l, sig.K)
	}
	rows := make([][]int, l)
	for b := range rows {
		rows[b] = make([]int, r)
		for i := range rows[b] {
			rows[b][i] = b*r + i
		}
	}
	return newBands(sig, rows, nil), nil
}

// Sampled lays out the Q_{r,l,k} variant: each of the l bands hashes on
// r values drawn uniformly (without replacement) from the k available,
// so the same value may participate in several bands; sig.K must be at
// least r. The sequential RNG makes the layout a pure function of
// (sig.K, r, l, seed), so every process derives identical bands.
func Sampled(sig *minhash.Signatures, r, l int, seed uint64) (*Bands, error) {
	if err := checkRL(r, l); err != nil {
		return nil, err
	}
	if sig.K < r {
		return nil, fmt.Errorf("lsh: need k >= r = %d min-hash values, have %d", r, sig.K)
	}
	rng := hashing.NewSplitMix64(seed)
	rows := make([][]int, l)
	for b := range rows {
		rows[b] = rng.Perm(sig.K)[:r]
	}
	return newBands(sig, rows, nil), nil
}

func checkRL(r, l int) error {
	if r <= 0 || l <= 0 {
		return fmt.Errorf("lsh: r and l must be positive, got r=%d l=%d", r, l)
	}
	return nil
}

// newBands allocates a kernel's scratch as one block per element type.
func newBands(sig *minhash.Signatures, rows [][]int, kept *buckets) *Bands {
	m := sig.M
	words, cols := make([]uint64, 3*m), make([]int32, 2*m)
	return &Bands{
		sig:        sig,
		rows:       rows,
		kept:       kept,
		keys:       words[:0:m],
		keyScratch: words[m : 2*m : 2*m],
		next:       words[2*m:],
		cols:       cols[:0:m],
		colScratch: cols[m:],
	}
}

// buckets is every band of a layout, sorted: band b's non-empty columns
// are cols[off[b]:off[b+1]] beside their keys, keys and the columns of a
// bucket ascending — 12 bytes per band and column.
type buckets struct {
	keys []uint64
	cols []int32
	off  []int
}

// Keep sorts every band once and holds the buckets from then on — what
// a resident sketch keeps per layout, shared read-only with later forks,
// whose Range only walks and whose Column only searches. A cancelled ctx
// stops the build between bands and keeps nothing.
func (b *Bands) Keep(ctx context.Context) error {
	n := len(b.rows) * b.sig.M
	kept := &buckets{keys: make([]uint64, 0, n), cols: make([]int32, 0, n), off: make([]int, 1, len(b.rows)+1)}
	for bi := range b.rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, cols := b.sorted(bi)
		kept.keys, kept.cols = append(kept.keys, keys...), append(kept.cols, cols...)
		kept.off = append(kept.off, len(kept.keys))
	}
	b.kept = kept
	return nil
}

// Len is the number of bands.
func (b *Bands) Len() int { return len(b.rows) }

// Fork returns a kernel over the same layout, signatures and kept
// buckets with private scratch: one per goroutine.
func (b *Bands) Fork() *Bands { return newBands(b.sig, b.rows, b.kept) }

// Range appends to dst the collisions of bands [lo, hi), which must lie
// in [0, Len()], band after band, and returns with it the number of
// pairs appended — the range's BucketPairs. Within a band the pairs are
// distinct (buckets partition the columns) and ascend by (I, J); a pair
// colliding in several bands appears once for each, and the union over
// any partition into ranges, deduplicated, is the Candidates set.
func (b *Bands) Range(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	from := len(dst)
	for bi := lo; bi < hi; bi++ {
		dst = b.band(bi, dst)
	}
	return dst, int64(len(dst) - from)
}

// key is column c's bucket key in the band over the given signature
// rows — CombineKeys of its r values — and false for a column empty in
// all of them, which enters no bucket.
func (b *Bands) key(rows []int, c int) (uint64, bool) {
	m := b.sig.M
	b.vals = b.vals[:0]
	empty := true
	for _, l := range rows {
		v := b.sig.Vals[l*m+c]
		if v != minhash.Empty {
			empty = false
		}
		b.vals = append(b.vals, v)
	}
	if empty {
		return 0, false
	}
	return hashing.CombineKeys(b.vals), true
}

// sorted is band bi's buckets: the kept ones, or every column with a
// non-empty value keyed and the (key, column) records radix-sorted into
// the kernel's scratch — each run of equal keys a bucket, columns
// ascending.
func (b *Bands) sorted(bi int) ([]uint64, []int32) {
	if k := b.kept; k != nil {
		return k.keys[k.off[bi]:k.off[bi+1]], k.cols[k.off[bi]:k.off[bi+1]]
	}
	keys, cols := b.keys[:0], b.cols[:0]
	for c := 0; c < b.sig.M; c++ {
		if key, ok := b.key(b.rows[bi], c); ok {
			keys, cols = append(keys, key), append(cols, int32(c))
		}
	}
	radix.SortByKey(keys, cols, b.keyScratch, b.colScratch)
	return keys, cols
}

// band appends to dst the colliding pairs of band bi: each bucket
// yields its pairs.
func (b *Bands) band(bi int, dst []pairs.Scored) []pairs.Scored {
	keys, cols := b.sorted(bi)
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
			dst = append(dst, pairs.Scored{Pair: pairs.Pair{I: int32(c), J: j}})
		}
	}
	return dst
}

// Column appends to dst the columns sharing a bucket with col — a valid
// column — in at least one band, each once, as pairs with col, and
// returns with it the number of (band, column) collisions found: col's
// share of Range's BucketPairs. A band costs one search for col's key
// in its buckets — and, for a kernel that keeps none, their sort.
func (b *Bands) Column(dst []pairs.Scored, col int) ([]pairs.Scored, int64) {
	from := len(dst)
	var collisions int64
	for bi, rows := range b.rows {
		want, ok := b.key(rows, col)
		if !ok {
			continue
		}
		keys, cols := b.sorted(bi)
		q, _ := slices.BinarySearch(keys, want)
		for ; q < len(keys) && keys[q] == want; q++ {
			c := cols[q]
			if int(c) == col {
				continue
			}
			collisions++
			if b.next[c] == 0 { // not met in an earlier band
				b.next[c] = 1
				dst = append(dst, pairs.Scored{Pair: pairs.Make(int32(col), c)})
			}
		}
	}
	for _, p := range dst[from:] {
		b.next[p.I], b.next[p.J] = 0, 0
	}
	return dst, collisions
}
