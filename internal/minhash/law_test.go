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
			return Compute(m.Stream(), lawK, seed)
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
			stat, df := chiSquare(counts[p], binomialPMF(lawK, s), lawSeeds)
			pv := chiSquareSurvival(stat, df)
			t.Logf("%s S=%.1f: chi2=%.2f df=%d p=%.4f", f.name, s, stat, df, pv)
			if pv < lawAlpha {
				t.Errorf("%s: agreement counts at S=%.1f reject Binomial(%d, %.1f): chi2=%.2f df=%d p=%.2g < %g; counts %v",
					f.name, s, lawK, s, stat, df, pv, lawAlpha, counts[p])
			}
		}
	}
}

// binomialPMF returns P[X = x] for X ~ Binomial(k, p), x = 0..k.
func binomialPMF(k int, p float64) []float64 {
	pmf := make([]float64, k+1)
	for x := range pmf {
		lg, _ := math.Lgamma(float64(k + 1))
		lx, _ := math.Lgamma(float64(x + 1))
		lkx, _ := math.Lgamma(float64(k - x + 1))
		pmf[x] = math.Exp(lg - lx - lkx + float64(x)*math.Log(p) + float64(k-x)*math.Log1p(-p))
	}
	return pmf
}

// chiSquare returns Pearson's statistic of observed counts against n
// draws from pmf, with adjacent cells pooled left to right until each
// expects at least 5 (a short last cell joins its neighbour), and the
// degrees of freedom: pooled cells minus one.
func chiSquare(observed []int, pmf []float64, n int) (stat float64, df int) {
	var obs, exp []float64
	o, e := 0.0, 0.0
	for x := range pmf {
		o += float64(observed[x])
		e += pmf[x] * float64(n)
		if e >= 5 {
			obs, exp = append(obs, o), append(exp, e)
			o, e = 0, 0
		}
	}
	if len(exp) == 0 {
		return 0, 0
	}
	obs[len(obs)-1] += o
	exp[len(exp)-1] += e
	for i := range exp {
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
	}
	return stat, len(exp) - 1
}

// chiSquareSurvival returns P[χ²_df > x], the regularized upper
// incomplete gamma function Q(df/2, x/2): its power series below a+1,
// Lentz's continued fraction above.
func chiSquareSurvival(x float64, df int) float64 {
	a, z := float64(df)/2, x/2
	if df <= 0 || z <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	front := math.Exp(-z + a*math.Log(z) - lg)
	if z < a+1 {
		sum, term := 1/a, 1/a
		for n := 1.0; math.Abs(term) > math.Abs(sum)*1e-15; n++ {
			term *= z / (a + n)
			sum += term
		}
		return 1 - front*sum
	}
	const tiny = 1e-300
	b := z + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1.0; ; i++ {
		an := -i * (i - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return front * h
}

// TestChiSquareSurvival pins the tail function to table values: the
// 5 % and 0.1 % critical points of χ² at 1, 4 and 10 degrees of freedom.
func TestChiSquareSurvival(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05}, {9.488, 4, 0.05}, {18.307, 10, 0.05},
		{10.828, 1, 0.001}, {18.467, 4, 0.001}, {29.588, 10, 0.001},
	} {
		if got := chiSquareSurvival(tc.x, tc.df); math.Abs(got-tc.want) > 0.01*tc.want {
			t.Errorf("P[chi2_%d > %v] = %.6f, want %v", tc.df, tc.x, got, tc.want)
		}
	}
	if got := chiSquareSurvival(0, 3); got != 1 {
		t.Errorf("P[chi2_3 > 0] = %v, want 1", got)
	}
}
