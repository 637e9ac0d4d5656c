package lsh

import (
	"fmt"

	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// BandPairs is the candidate output of one band, the unit of work the
// scale-out executor ships: buckets partition the columns within a
// band, so the band's pair list is duplicate-free by construction, and
// the band kernel emits it sorted by (I, J), the wire encoding's
// canonical order. Unioning the BandPairs of all bands with exact dedup
// reproduces the Candidates / SampledCandidates set precisely.
type BandPairs struct {
	Band        int          // band index in [0, l)
	Pairs       []pairs.Pair // distinct colliding pairs, sorted by (I, J)
	BucketPairs int64        // pair-additions attempted (the Stats term)
}

// CandidateBands generates the collisions of bands [lo, hi) under the
// basic disjoint layout of Candidates (l bands of r consecutive rows;
// sig.K must be at least r*l).
func CandidateBands(sig *minhash.Signatures, r, l, lo, hi int) ([]BandPairs, error) {
	if err := checkRL(r, l); err != nil {
		return nil, err
	}
	if sig.K < r*l {
		return nil, fmt.Errorf("lsh: need k >= r*l = %d min-hash values, have %d (use SampledCandidateBands)", r*l, sig.K)
	}
	return bandRange(sig, disjointBands(r, l), lo, hi)
}

// SampledCandidateBands generates the collisions of bands [lo, hi)
// under the Q_{r,l,k} sampled layout of SampledCandidates. The layout
// is a pure function of (sig.K, r, l, seed), so every worker derives
// identical bands.
func SampledCandidateBands(sig *minhash.Signatures, r, l int, seed uint64, lo, hi int) ([]BandPairs, error) {
	if err := checkRL(r, l); err != nil {
		return nil, err
	}
	if sig.K < r {
		return nil, fmt.Errorf("lsh: need k >= r = %d min-hash values, have %d", r, sig.K)
	}
	return bandRange(sig, sampledBands(sig.K, r, l, seed), lo, hi)
}

// bandRange hashes bands [lo, hi) with the kernel bandCandidates uses —
// same keys, same empty-column rule, same bucket-pair accounting — but
// returns each band's distinct collisions instead of accumulating a
// global set.
func bandRange(sig *minhash.Signatures, bands [][]int, lo, hi int) ([]BandPairs, error) {
	if lo < 0 || hi > len(bands) || lo > hi {
		return nil, fmt.Errorf("lsh: band range [%d,%d) outside [0,%d)", lo, hi, len(bands))
	}
	out := make([]BandPairs, 0, hi-lo)
	bd := newBander(sig)
	for b := lo; b < hi; b++ {
		ps := bd.band(bands[b], nil)
		out = append(out, BandPairs{Band: b, Pairs: ps, BucketPairs: int64(len(ps))})
	}
	return out, nil
}
