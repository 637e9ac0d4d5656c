package lsh

import (
	"math"
	"testing"

	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// The band law of Section 4.1. A band hashes on r min-hash values of
// its own, drawn from hash functions no other band uses, so a pair at
// similarity S shares a bucket in one band with probability S^r
// (Proposition 1, r times over) independently of every other band: the
// number of the l bands it collides in is a Binomial(l, S^r) draw, and
// the detection probability P_{r,l}(S) = 1 - (1 - S^r)^l is that
// count's chance to be non-zero.
const (
	lawR, lawL = 4, 8
	lawSeeds   = 1000  // signatures drawn: seeds 1..lawSeeds
	lawAlpha   = 0.001 // significance level of each chi-square test
	lawUnion   = 10    // |C_i ∪ C_j| of each planted pair
)

var lawSims = []float64{0.3, 0.5, 0.8}

// TestBandCollisionLaw draws lawSeeds signatures of three planted pairs
// (S = 0.3, 0.5, 0.8 exactly) from the production hash family
// (the MH fold, phase 1's own), bands each with the
// disjoint layout of lawL bands of lawR rows, counts the bands whose
// buckets each pair shares, and holds those counts to
// Binomial(lawL, S^lawR) with a chi-square goodness-of-fit test at
// lawAlpha.
func TestBandCollisionLaw(t *testing.T) {
	rows, cols := testutil.PlantedPairs(lawUnion, lawSims)
	m := testutil.Must(matrix.New(rows, cols))
	counts := make([][]int, len(lawSims)) // counts[p][x]: seeds where pair p collides in x bands
	for p := range counts {
		counts[p] = make([]int, lawL+1)
	}
	for seed := uint64(1); seed <= lawSeeds; seed++ {
		sig, err := mhSketch(m.Stream(), lawR*lawL, seed)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernelOf(sig, lawR, lawL, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Column's work is its (band, column) collisions, and a planted
		// column shares rows with its partner alone: the bands the pair
		// collides in.
		for p := range lawSims {
			ps, bands, err := k.Column(nil, 2*p)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) > 1 || len(ps) == 1 && ps[0].Pair != (pairs.Pair{I: int32(2 * p), J: int32(2*p + 1)}) {
				t.Fatalf("seed %d: column %d collides with %v", seed, 2*p, ps)
			}
			counts[p][bands]++
		}
	}
	for p, s := range lawSims {
		pmf := testutil.BinomialPMF(lawL, math.Pow(s, lawR))
		if want := ProbAtLeastOnce(s, lawR, lawL); math.Abs(want-(1-pmf[0])) > 1e-12 {
			t.Errorf("P_{%d,%d}(%.1f) = %v, but the band law detects with %v", lawR, lawL, s, want, 1-pmf[0])
		}
		stat, df := testutil.ChiSquare(counts[p], pmf, lawSeeds)
		pv := testutil.ChiSquareSurvival(stat, df)
		t.Logf("S=%.1f: chi2=%.2f df=%d p=%.4f; counts %v", s, stat, df, pv, counts[p])
		if pv < lawAlpha {
			t.Errorf("band collision counts at S=%.1f reject Binomial(%d, %.1f^%d): chi2=%.2f df=%d p=%.2g < %g; counts %v",
				s, lawL, s, lawR, stat, df, pv, lawAlpha, counts[p])
		}
	}
}
