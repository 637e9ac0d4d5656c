package assocmine

import (
	"cmp"
	"fmt"
	"slices"

	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
	"assocmine/internal/verify"
)

// OrRule is a disjunctive rule From => To[0] ∨ To[1] (Section 7).
type OrRule struct {
	From     int
	To       [2]int
	Estimate float64
	// Similarity is the exact verified similarity between the
	// antecedent and the OR of the consequents.
	Similarity float64
}

// AndRule is a conjunctive rule From => To[0] ∧ To[1] (Section 7).
type AndRule struct {
	From     int
	To       [2]int
	Estimate float64
}

// OrRules finds disjunctive rules c_i => c_j ∨ c_j' (Section 7) from a
// resident MH sketch of d (ComputeSignatures, Ingest.Signatures). The
// consequent pairs tried for each antecedent come from shortlist; use
// the consequents of verified single rules or of similar pairs. A
// rule's estimate compares c_i's signature with the OR column's, the
// component-wise minimum of its consequents'; its exact similarity
// comes from phase 3's one pass over d, which sees each consequent pair
// as one more column (orColumns). Rules come by decreasing Similarity,
// then From, To[0], To[1].
func OrRules(d *Dataset, sig *Signatures, shortlist map[int][]int, minSim float64) ([]OrRule, error) {
	if sig.sig.M != d.NumCols() {
		return nil, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", sig.sig.M, d.NumCols())
	}
	conv := make(map[int32][]int32, len(shortlist))
	for from, tos := range shortlist {
		lst := make([]int32, len(tos))
		for i, t := range tos {
			lst[i] = int32(t)
		}
		conv[int32(from)] = lst
	}
	ors, err := rules.OrCandidates(sig.sig, conv, minSim)
	if err != nil {
		return nil, err
	}
	src, cand := newOrColumns(d.m.Stream(), ors)
	kept, _, err := verify.Verify(src, cand, verify.Params{Threshold: minSim})
	if err != nil {
		return nil, err
	}
	m := int32(d.NumCols())
	out := make([]OrRule, len(kept))
	for x, p := range kept {
		to := src.ors[p.J-m]
		out[x] = OrRule{From: int(p.I), To: [2]int{int(to[0]), int(to[1])}, Estimate: p.Estimate, Similarity: p.Exact}
	}
	slices.SortFunc(out, func(a, b OrRule) int {
		return cmp.Or(cmp.Compare(b.Similarity, a.Similarity), cmp.Compare(a.From, b.From),
			cmp.Compare(a.To[0], b.To[0]), cmp.Compare(a.To[1], b.To[1]))
	})
	return out, nil
}

// orColumns is a RowSource over src with a virtual column appended for
// each distinct consequent pair of the rules it was made for: column
// m+t holds the rows of C_j ∪ C_j' for ors[t] = (j, j'), so a rule
// c_i => c_j ∨ c_j' is the ordinary phase-3 pair (i, m+t) and the
// pairwise kernels never hold a third column. A row lists its own
// columns, then its virtual ones in increasing order.
type orColumns struct {
	matrix.RowSource
	ors [][2]int32 // the consequent pair of each virtual column
	of  [][]int32  // the virtual columns each column of src is in, increasing
}

// newOrColumns numbers the consequent pairs of rs in order of first
// use and returns the extended source with each rule's candidate pair,
// Estimate carried.
func newOrColumns(src matrix.RowSource, rs []rules.OrRule) (*orColumns, []pairs.Scored) {
	s := &orColumns{RowSource: src, of: make([][]int32, src.NumCols())}
	m := int32(src.NumCols())
	col := map[[2]int32]int32{}
	cand := make([]pairs.Scored, len(rs))
	for x, r := range rs {
		t, ok := col[r.To]
		if !ok {
			t = int32(len(s.ors))
			col[r.To] = t
			s.ors = append(s.ors, r.To)
			for _, c := range r.To {
				s.of[c] = append(s.of[c], t)
			}
		}
		cand[x] = pairs.Scored{Pair: pairs.Pair{I: r.From, J: m + t}, Estimate: r.Estimate}
	}
	return s, cand
}

// NumCols implements matrix.RowSource: src's columns, then the virtual
// ones.
func (s *orColumns) NumCols() int { return len(s.of) + len(s.ors) }

// Scan implements matrix.RowSource.
func (s *orColumns) Scan(fn func(row int, cols []int32) error) error {
	m := int32(len(s.of))
	listed := make([]int, len(s.ors)) // 1 + the last row listing each virtual column
	var row []int32
	return s.RowSource.Scan(func(r int, cols []int32) error {
		row = append(row[:0], cols...)
		for _, c := range cols {
			for _, t := range s.of[c] {
				if listed[t] != r+1 {
					listed[t] = r + 1
					row = append(row, m+t)
				}
			}
		}
		slices.Sort(row[len(cols):])
		return fn(r, row)
	})
}

// AndRules derives conjunctive rules c_i => c_j ∧ c_j2 from verified
// single rules — the pairs of a Rules run, each the rule I => J at
// confidence Similarity (Section 7's cardinality construction).
func AndRules(verified []Pair, minConf float64) ([]AndRule, error) {
	conv := make([]rules.Rule, len(verified))
	for i, r := range verified {
		conv[i] = rules.Rule{From: int32(r.I), To: int32(r.J), Estimate: r.Estimate, Exact: r.Similarity}
	}
	ands, err := rules.AndCandidates(conv, minConf)
	if err != nil {
		return nil, err
	}
	out := make([]AndRule, len(ands))
	for i, r := range ands {
		out[i] = AndRule{From: int(r.From), To: [2]int{int(r.To[0]), int(r.To[1])}, Estimate: r.Estimate}
	}
	return out, nil
}
