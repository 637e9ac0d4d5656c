package lsh

import (
	"fmt"
	"math"
)

// Distribution is a histogram of pairwise similarities: Count[i] pairs
// at similarity S[i]. It is the input to the input-sensitive parameter
// optimizer of Section 4.1 and is typically estimated by sampling a
// small fraction of columns (eval.SampleDistribution).
type Distribution struct {
	S     []float64
	Count []float64
}

// validate reports whether the distribution is well-formed.
func (d Distribution) validate() error {
	if len(d.S) != len(d.Count) {
		return fmt.Errorf("lsh: distribution has %d similarities but %d counts", len(d.S), len(d.Count))
	}
	for i, s := range d.S {
		if s < 0 || s > 1 || math.IsNaN(s) {
			return fmt.Errorf("lsh: similarity %v at index %d out of [0,1]", s, i)
		}
		if d.Count[i] < 0 {
			return fmt.Errorf("lsh: negative count at index %d", i)
		}
	}
	return nil
}

// expectedErrors returns the expected number of false negatives and
// false positives of the P_{r,l} filter at cutoff s0 over the
// distribution: FN = Σ_{s>=s0} count·(1-P(s)), FP = Σ_{s<s0} count·P(s).
func (d Distribution) expectedErrors(s0 float64, r, l int) (fn, fp float64) {
	for i, s := range d.S {
		p := ProbAtLeastOnce(s, r, l)
		if s >= s0 {
			fn += d.Count[i] * (1 - p)
		} else {
			fp += d.Count[i] * p
		}
	}
	return fn, fp
}

// Params is an (r, l) choice with its predicted error counts.
type Params struct {
	R, L   int
	FN, FP float64
}

// cost returns l·r, the signature budget the optimizer minimizes.
func (p Params) cost() int { return p.R * p.L }

// Optimize solves the Section 4.1 minimization problem
//
//	minimize  l·r
//	s.t.      Σ_{s_i >= s0} distr(s_i)·(1-P_{r,l}(s_i)) <= maxFN
//	          Σ_{s_i <  s0} distr(s_i)·P_{r,l}(s_i)     <= maxFP
//
// by iterating over small r (1..maxR), binary-searching the minimal l
// that meets the FN budget (P, and hence FN-feasibility, is monotone in
// l) and checking the FP budget there (FP is also monotone increasing
// in l, so the minimal FN-feasible l is the only l worth checking for a
// given r). The paper reports the optimal r landing between 5 and 20 in
// most experiments.
func Optimize(d Distribution, s0, maxFN, maxFP float64, maxR, maxL int) (Params, error) {
	if err := d.validate(); err != nil {
		return Params{}, err
	}
	if s0 <= 0 || s0 > 1 {
		return Params{}, fmt.Errorf("lsh: cutoff s0 must be in (0,1], got %v", s0)
	}
	if maxFN < 0 || maxFP < 0 {
		return Params{}, fmt.Errorf("lsh: error budgets must be non-negative")
	}
	if maxR <= 0 || maxL <= 0 {
		return Params{}, fmt.Errorf("lsh: maxR and maxL must be positive")
	}
	best := Params{}
	found := false
	for r := 1; r <= maxR; r++ {
		// Minimal l with FN <= maxFN; FN decreases monotonically in l.
		lo, hi := 1, maxL
		if fn, _ := d.expectedErrors(s0, r, maxL); fn > maxFN {
			continue // even maxL bands cannot meet the FN budget at this r
		}
		for lo < hi {
			mid := (lo + hi) / 2
			if fn, _ := d.expectedErrors(s0, r, mid); fn <= maxFN {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		fn, fp := d.expectedErrors(s0, r, lo)
		if fp > maxFP {
			continue
		}
		p := Params{R: r, L: lo, FN: fn, FP: fp}
		if !found || p.cost() < best.cost() {
			best, found = p, true
		}
	}
	if !found {
		return Params{}, fmt.Errorf("lsh: no (r,l) with r<=%d, l<=%d meets FN<=%v and FP<=%v at cutoff %v",
			maxR, maxL, maxFN, maxFP, s0)
	}
	return best, nil
}
