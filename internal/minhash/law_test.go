package minhash

import (
	"math"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// Theorem 1's law. For one random row order, Prob[h(c_i) = h(c_j)] =
// S(c_i, c_j) (Proposition 1), so over k independent orders the
// agreement count k·Ŝ is a Binomial(k, S) draw: the exact law of the MH
// estimate that Theorem 1's Chernoff bound summarises (Dembele & Lo
// derive the same law for the min-hash similarity estimate).
const (
	lawK     = 16    // hash functions per signature
	lawSeeds = 400   // signatures drawn per hash family: seeds 1..lawSeeds
	lawAlpha = 0.001 // significance level of each chi-square test
	lawUnion = 10    // |C_i ∪ C_j| of each planted pair
)

var lawSims = []float64{0.2, 0.5, 0.8}

// TestTheorem1AgreementLaw draws lawSeeds signatures of three planted
// pairs (S = 0.2, 0.5, 0.8 exactly) and holds each pair's agreement
// counts to Binomial(lawK, S) with a chi-square goodness-of-fit test at
// lawAlpha, for two hash families: explicit uniform row permutations
// (the fromPermutations oracle, where the law is exact) and the
// production family Compute folds through FoldState.
func TestTheorem1AgreementLaw(t *testing.T) {
	rows, cols := testutil.PlantedPairs(lawUnion, lawSims)
	m := testutil.Must(matrix.New(rows, cols))
	for p, s := range lawSims {
		if got := m.Similarity(2*p, 2*p+1); math.Abs(got-s) > 1e-12 {
			t.Fatalf("planted pair %d has similarity %v, want %v", p, got, s)
		}
	}
	families := []struct {
		name string
		sig  func(seed uint64) (*Signatures, error)
	}{
		{"permutations", func(seed uint64) (*Signatures, error) {
			rng := hashing.NewSplitMix64(seed)
			perms := make([][]int, lawK)
			for l := range perms {
				perms[l] = rng.Perm(rows)
			}
			return fromPermutations(m.Stream(), perms)
		}},
		{"FoldState", func(seed uint64) (*Signatures, error) {
			return compute(m.Stream(), lawK, seed)
		}},
	}
	for _, f := range families {
		counts := make([][]int, len(lawSims)) // counts[p][x]: seeds with x agreements
		for p := range counts {
			counts[p] = make([]int, lawK+1)
		}
		for seed := uint64(1); seed <= lawSeeds; seed++ {
			sig, err := f.sig(seed)
			if err != nil {
				t.Fatal(err)
			}
			for p := range lawSims {
				counts[p][sig.agreement(2*p, 2*p+1)]++
			}
		}
		for p, s := range lawSims {
			stat, df := testutil.ChiSquare(counts[p], testutil.BinomialPMF(lawK, s), lawSeeds)
			pv := testutil.ChiSquareSurvival(stat, df)
			t.Logf("%s S=%.1f: chi2=%.2f df=%d p=%.4f", f.name, s, stat, df, pv)
			if pv < lawAlpha {
				t.Errorf("%s: agreement counts at S=%.1f reject Binomial(%d, %.1f): chi2=%.2f df=%d p=%.2g < %g; counts %v",
					f.name, s, lawK, s, stat, df, pv, lawAlpha, counts[p])
			}
		}
	}
}

// TestChiSquareSurvival pins the tail function the law tests share to
// table values: the 5 % and 0.1 % critical points of χ² at 1, 4 and 10
// degrees of freedom.
func TestChiSquareSurvival(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05}, {9.488, 4, 0.05}, {18.307, 10, 0.05},
		{10.828, 1, 0.001}, {18.467, 4, 0.001}, {29.588, 10, 0.001},
	} {
		if got := testutil.ChiSquareSurvival(tc.x, tc.df); math.Abs(got-tc.want) > 0.01*tc.want {
			t.Errorf("P[chi2_%d > %v] = %.6f, want %v", tc.df, tc.x, got, tc.want)
		}
	}
	if got := testutil.ChiSquareSurvival(0, 3); got != 1 {
		t.Errorf("P[chi2_3 > 0] = %v, want 1", got)
	}
}
