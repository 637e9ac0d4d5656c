package assocmine

import (
	"fmt"
	"math"
	"sort"

	"assocmine/internal/cluster"
	"assocmine/internal/measures"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// This file exposes the Section 7 extensions: mutual exclusion
// (anticorrelation) and the column clustering the paper's news
// experiment illustrates. Multi-way OR consequents are ExprEvaluator's
// AnyOf.

// Exclusion is a column pair that co-occurs far less than independence
// predicts (Lift = observed/expected co-occurrence, near 0 for mutual
// exclusion).
type Exclusion struct {
	I, J               int
	Expected, Observed float64
	Lift               float64
}

// ExclusionConfig controls MutualExclusions. A support floor is
// mandatory: extremely sparse columns are mutually exclusive by sheer
// chance (Section 7).
type ExclusionConfig struct {
	// MinSupport is the support-fraction floor for both columns.
	MinSupport float64
	// MaxLift is the reporting ceiling on observed/expected; default 0.2.
	MaxLift float64
}

// MutualExclusions finds anticorrelated column pairs exactly: both
// columns hold at least ⌈MinSupport·n⌉ rows and co-occur in at most
// MaxLift times the |C_i|·|C_j|/n rows independence predicts. The
// pairs come sorted by lift, then I, then J.
//
// It is one phase-3 pass: every pair of eligible columns is a candidate
// of verify.Verify, whose measure is the observed count |C_i ∩ C_j| when
// the pair is exclusive enough and NaN, which passes no threshold,
// otherwise.
func MutualExclusions(d *Dataset, cfg ExclusionConfig) ([]Exclusion, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("assocmine: exclusion mining requires MinSupport in (0,1], got %v", cfg.MinSupport)
	}
	if cfg.MaxLift == 0 {
		cfg.MaxLift = 0.2
	}
	if cfg.MaxLift < 0 {
		return nil, fmt.Errorf("assocmine: MaxLift must be non-negative")
	}
	m := d.m
	n := float64(m.NumRows())
	minCount := int(math.Ceil(cfg.MinSupport * n))
	var eligible []int32
	for c := 0; c < m.NumCols(); c++ {
		if m.ColumnSize(c) >= minCount {
			eligible = append(eligible, int32(c))
		}
	}
	cand := make([]pairs.Scored, 0, len(eligible)*(len(eligible)-1)/2)
	for a, i := range eligible {
		for _, j := range eligible[a+1:] {
			cand = append(cand, pairs.Scored{Pair: pairs.Pair{I: i, J: j}})
		}
	}
	exclusive := func(c measures.Counts) float64 {
		if observed := float64(c.Inter); observed <= cfg.MaxLift*(float64(c.A)*float64(c.B)/float64(c.N)) {
			return observed
		}
		return math.NaN()
	}
	kept, _, err := verify.Verify(m.Stream(), cand, verify.Params{Measure: exclusive})
	if err != nil {
		return nil, err
	}
	out := make([]Exclusion, len(kept))
	for x, p := range kept {
		expected := float64(m.ColumnSize(int(p.I))) * float64(m.ColumnSize(int(p.J))) / n
		out[x] = Exclusion{I: int(p.I), J: int(p.J), Expected: expected, Observed: p.Exact, Lift: p.Exact / expected}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Lift != out[b].Lift {
			return out[a].Lift < out[b].Lift
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out, nil
}

// Cluster groups a similar-pairs result over cols columns into column
// clusters: connected components of the similarity graph whose pairwise
// edge density is at least minDensity (use 0 for plain single-link
// components). This is the paper's "clusters of words" output — e.g.
// the chess-event cluster.
func Cluster(cols int, found []Pair, minDensity float64) [][]int {
	ps := make([]pairs.Pair, 0, len(found))
	for _, p := range found {
		if p.I == p.J {
			continue
		}
		ps = append(ps, pairs.Make(int32(p.I), int32(p.J)))
	}
	var raw [][]int32
	if minDensity > 0 {
		raw = cluster.DenseComponents(cols, ps, minDensity)
	} else {
		raw = cluster.Components(cols, ps)
	}
	out := make([][]int, len(raw))
	for i, comp := range raw {
		out[i] = make([]int, len(comp))
		for j, c := range comp {
			out[i][j] = int(c)
		}
	}
	return out
}
