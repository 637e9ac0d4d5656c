package testutil

import "math"

// The goodness-of-fit kit of the estimator-law tests: a count of
// successes is held to its binomial law with Pearson's chi-square at a
// fixed significance level.

// BinomialPMF returns P[X = x] for X ~ Binomial(k, p), x = 0..k.
func BinomialPMF(k int, p float64) []float64 {
	pmf := make([]float64, k+1)
	for x := range pmf {
		lg, _ := math.Lgamma(float64(k + 1))
		lx, _ := math.Lgamma(float64(x + 1))
		lkx, _ := math.Lgamma(float64(k - x + 1))
		pmf[x] = math.Exp(lg - lx - lkx + float64(x)*math.Log(p) + float64(k-x)*math.Log1p(-p))
	}
	return pmf
}

// ChiSquare returns Pearson's statistic of observed counts against n
// draws from pmf, with adjacent cells pooled left to right until each
// expects at least 5 (a short last cell joins its neighbour), and the
// degrees of freedom: pooled cells minus one.
func ChiSquare(observed []int, pmf []float64, n int) (stat float64, df int) {
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

// ChiSquareSurvival returns P[χ²_df > x], the regularized upper
// incomplete gamma function Q(df/2, x/2): its power series below a+1,
// Lentz's continued fraction above.
func ChiSquareSurvival(x float64, df int) float64 {
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
