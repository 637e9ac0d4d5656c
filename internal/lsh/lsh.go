// Package lsh is the probability side of the Min-LSH (M-LSH) scheme of
// Section 4.1: the k x m min-hash matrix is split into l bands of r
// rows; within each band every column is hashed on the concatenation of
// its r values, and columns sharing a bucket in at least one band become
// candidates. The collision probability for a pair with similarity s is
// the S-shaped filter function P_{r,l}(s) = 1 - (1 - s^r)^l: the chance
// that at least one of the l band keys agrees. The sampled variant
// Q_{r,l,k} (bands draw r values at random from only k available
// min-hashes, k < r·l) averages it over the agreement count, and the
// input-sensitive (r, l) optimizer minimizes l·r subject to expected
// false-negative and false-positive budgets over a similarity
// distribution.
//
// The banding itself is phase 2's M-LSH kernel (internal/candidate):
// Row-Sorting over the l × m band-key matrix at an agreement floor of
// one. Candidates is an adapter that runs that kernel serially, so what
// it costs is what a run pays.
package lsh

import (
	"context"
	"fmt"
	"math"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
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
	BucketPairs int64 // bucket pairs walked: Σ C(s, 2) over every band's buckets
	Candidates  int   // distinct pairs produced
}

// Candidates runs the basic M-LSH banding over the signature matrix
// using l disjoint bands of r consecutive rows — phase 2's M-LSH kernel
// (candidate.For), one serial scan; sig.K must be at least r*l. Empty
// columns never enter buckets.
func Candidates(sig *minhash.Signatures, r, l int) (*pairs.Set, Stats, error) {
	if r <= 0 || l <= 0 {
		return nil, Stats{}, fmt.Errorf("lsh: r and l must be positive, got r=%d l=%d", r, l)
	}
	if sig.K < r*l {
		return nil, Stats{}, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d", r*l, sig.K)
	}
	ctx := context.Background()
	k, err := candidate.For(ctx, candidate.Params{Algo: fold.MinLSH, K: sig.K, R: r, L: l}, fold.Sketch{MH: sig}, 1)
	if err != nil {
		return nil, Stats{}, err
	}
	collide, bucketPairs, err := k.Scan(ctx, nil, 1, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	set := pairs.NewSet(len(collide))
	for _, p := range collide {
		set.Add(p.I, p.J)
	}
	return set, Stats{Bands: l, BucketPairs: bucketPairs, Candidates: set.Len()}, nil
}
