package bps

import (
	"fmt"
	"slices"
	"testing"

	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// The sampling law. A draw of pair (i, j) in row r is accepted when
// Mix64(rowH ^ key(i, j)) < p_ij·2^64, rowH one Mix64 of the seed and r:
// a fresh uniform for every row and, through the per-pair fold, for
// every pair of one row. So over seeds a pair that co-occurs in c_ij
// rows is tallied Binomial(c_ij, p_ij) times, and the three pairs of a
// column triple sharing those rows, at one p, Binomial(3·c_ij, p)
// times together: the per-pair draws are independent.
const (
	lawSeeds     = 2000  // seeds 1..lawSeeds
	lawAlpha     = 0.001 // significance level of each chi-square test
	lawShared    = 40    // rows all three columns hold: c_ij of each pair
	lawOwn       = 20    // rows each column holds alone
	lawBudget    = 4     // λ
	lawThreshold = 0.5   // s*
)

// TestSampleCountLaw plants a column triple whose pairs all have
// similarity s* and supports s = lawShared+lawOwn, the largest, so that
// p = Δ/s² = λ(1+s*)/(2s*·s) = 0.1 < 1 and p·c* = λ, the package doc's
// bound met with equality; the pairs are admissible. It tallies each
// seed's accepted draws with SampleCounts and holds every pair's counts
// to Binomial(lawShared, p) and the triple's sums to
// Binomial(3·lawShared, p), by Pearson's chi-square at lawAlpha.
func TestSampleCountLaw(t *testing.T) {
	rows := make([][]int32, lawShared+3*lawOwn)
	for r := range rows {
		if r < lawShared {
			rows[r] = []int32{0, 1, 2}
		} else {
			rows[r] = []int32{int32((r - lawShared) / lawOwn)}
		}
	}
	src := testutil.Must(matrix.FromRows(3, rows)).Stream()
	sup, err := Supports(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Threshold: lawThreshold, Delta: 0.2, Budget: lawBudget}
	f, _ := sampleParams(sup, opt)
	s := float64(lawShared + lawOwn)
	p, need := f.at(s, s)
	cStar := lawThreshold * 2 * s / (1 + lawThreshold)
	if p >= 1 || p*cStar < lawBudget-1e-9 || need > s {
		t.Fatalf("p = %v, p·c* = %v (λ = %d), need %v of support %v: not a subsampled admissible pair", p, p*cStar, lawBudget, need, s)
	}
	triple := []pairs.Pair{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2}}
	perPair := make([][]int, 3) // perPair[x][n]: seeds where triple[x] was tallied n times
	for x := range perPair {
		perPair[x] = make([]int, lawShared+1)
	}
	sums := make([]int, 3*lawShared+1)
	for seed := uint64(1); seed <= lawSeeds; seed++ {
		opt.Seed = seed
		counts, _, err := SampleCounts(src, sup, opt)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]int64
		for k, key := range counts.Keys {
			got[slices.Index(triple, pairs.FromKey(key))] = counts.N[k]
		}
		for x, n := range got {
			perPair[x][n]++
		}
		sums[got[0]+got[1]+got[2]]++
	}
	check := func(what string, observed []int, k int) {
		t.Helper()
		stat, df := testutil.ChiSquare(observed, testutil.BinomialPMF(k, p), lawSeeds)
		pv := testutil.ChiSquareSurvival(stat, df)
		t.Logf("%s: chi2=%.2f df=%d p=%.4f", what, stat, df, pv)
		if pv < lawAlpha {
			t.Errorf("%s rejects Binomial(%d, %.3f): chi2=%.2f df=%d p=%.2g < %g; counts %v", what, k, p, stat, df, pv, lawAlpha, observed)
		}
	}
	for x, pr := range triple {
		check(fmt.Sprintf("pair (%d,%d)'s tallies", pr.I, pr.J), perPair[x], lawShared)
	}
	check("the triple's tallies", sums, 3*lawShared)
}
