package rules

import (
	"fmt"
	"sort"

	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
)

// Section 7's anticorrelation extension: mutual exclusion between
// columns. Unlike similarity mining this *requires* a support floor —
// "extremely sparse columns are likely to be mutually exclusive by
// sheer chance" — but, as the paper notes, the hashing machinery still
// applies where a-priori would not help even with support pruning
// (a-priori counts co-occurrence; exclusion is its absence).

// Exclusion is a column pair that co-occurs far less than independence
// predicts.
type Exclusion struct {
	I, J int32
	// Expected is the co-occurrence count under independence:
	// |C_i|·|C_j|/n.
	Expected float64
	// Observed is the (exact or estimated) co-occurrence count.
	Observed float64
	// Lift is Observed/Expected; mutual exclusion is Lift << 1.
	Lift float64
}

// ExclusionOptions configures exclusion mining.
type ExclusionOptions struct {
	// MinSupport is the support-fraction floor both columns must meet
	// (statistical validity; required).
	MinSupport float64
	// MaxLift is the lift ceiling for reporting; pairs with
	// Observed/Expected <= MaxLift are returned. Defaults to 0.2.
	MaxLift float64
}

func (o *ExclusionOptions) validate() error {
	if o.MinSupport <= 0 || o.MinSupport > 1 {
		return fmt.Errorf("rules: exclusion mining requires MinSupport in (0,1], got %v", o.MinSupport)
	}
	if o.MaxLift == 0 {
		o.MaxLift = 0.2
	}
	if o.MaxLift < 0 {
		return fmt.Errorf("rules: MaxLift must be non-negative")
	}
	return nil
}

// MutualExclusions finds anticorrelated column pairs exactly: both
// columns at or above the support floor, observed co-occurrence at most
// MaxLift times the independence expectation.
func MutualExclusions(m *matrix.Matrix, opt ExclusionOptions) ([]Exclusion, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := float64(m.NumRows())
	minCount := int(opt.MinSupport * n)
	if float64(minCount) < opt.MinSupport*n {
		minCount++
	}
	var eligible []int32
	for c := 0; c < m.NumCols(); c++ {
		if m.ColumnSize(c) >= minCount {
			eligible = append(eligible, int32(c))
		}
	}
	var out []Exclusion
	for a := 0; a < len(eligible); a++ {
		for b := a + 1; b < len(eligible); b++ {
			i, j := eligible[a], eligible[b]
			expected := float64(m.ColumnSize(int(i))) * float64(m.ColumnSize(int(j))) / n
			observed := float64(m.IntersectSize(int(i), int(j)))
			if observed <= opt.MaxLift*expected {
				out = append(out, Exclusion{
					I: i, J: j,
					Expected: expected, Observed: observed,
					Lift: observed / expected,
				})
			}
		}
	}
	sortExclusions(out)
	return out, nil
}

// MutualExclusionsFromSignatures finds anticorrelation candidates from
// an MH signature matrix without touching the data again: the
// co-occurrence count is recovered from the similarity estimate via
// |C_i ∩ C_j| = S/(1+S) · (|C_i|+|C_j|). Pairs whose estimated lift is
// below MaxLift should then be confirmed with a verification pass
// (exclusion candidates are cheap to verify: one streaming pass).
func MutualExclusionsFromSignatures(sig *minhash.Signatures, colSizes []int, numRows int, opt ExclusionOptions) ([]Exclusion, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(colSizes) != sig.M {
		return nil, fmt.Errorf("rules: colSizes has %d entries for %d columns", len(colSizes), sig.M)
	}
	if numRows <= 0 {
		return nil, fmt.Errorf("rules: numRows must be positive")
	}
	n := float64(numRows)
	minCount := int(opt.MinSupport * n)
	if float64(minCount) < opt.MinSupport*n {
		minCount++
	}
	var eligible []int32
	for c := 0; c < sig.M; c++ {
		if colSizes[c] >= minCount {
			eligible = append(eligible, int32(c))
		}
	}
	var out []Exclusion
	for a := 0; a < len(eligible); a++ {
		for b := a + 1; b < len(eligible); b++ {
			i, j := eligible[a], eligible[b]
			s := sig.Estimate(int(i), int(j))
			observed := s / (1 + s) * float64(colSizes[i]+colSizes[j])
			expected := float64(colSizes[i]) * float64(colSizes[j]) / n
			if observed <= opt.MaxLift*expected {
				out = append(out, Exclusion{
					I: i, J: j,
					Expected: expected, Observed: observed,
					Lift: observed / expected,
				})
			}
		}
	}
	sortExclusions(out)
	return out, nil
}

func sortExclusions(xs []Exclusion) {
	sort.Slice(xs, func(a, b int) bool {
		if xs[a].Lift != xs[b].Lift {
			return xs[a].Lift < xs[b].Lift
		}
		if xs[a].I != xs[b].I {
			return xs[a].I < xs[b].I
		}
		return xs[a].J < xs[b].J
	})
}

// OrSimilarityEstimateMulti generalises orSimilarityEstimate to a
// disjunction of any number of consequents: the signature of
// c_{j1} ∨ … ∨ c_{jn} is the component-wise minimum of the individual
// signatures. The paper notes such extensions carry an overhead
// exponential in the number of composed columns when *searching* for
// them; evaluating one given composition is linear.
func OrSimilarityEstimateMulti(sig *minhash.Signatures, i int, js []int) float64 {
	if len(js) == 0 {
		return 0
	}
	agree := 0
	for l := 0; l < sig.K; l++ {
		vi := sig.Vals[l*sig.M+i]
		vo := minhash.Empty
		for _, j := range js {
			if v := sig.Vals[l*sig.M+j]; v < vo {
				vo = v
			}
		}
		if vi != minhash.Empty && vi == vo {
			agree++
		}
	}
	return float64(agree) / float64(sig.K)
}
