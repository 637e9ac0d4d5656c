package assocmine

import (
	"assocmine/internal/minhash"
	"assocmine/internal/rules"
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

// OrRules finds disjunctive rules c_i => c_j ∨ c_j2 (Section 7). The
// consequent pairs tried for each antecedent come from shortlist; use
// the consequents of verified single rules or of similar pairs.
func OrRules(d *Dataset, shortlist map[int][]int, minSim float64, k int, seed uint64) ([]OrRule, error) {
	if k == 0 {
		k = 200
	}
	sig, err := minhash.Compute(d.m.Stream(), k, seed)
	if err != nil {
		return nil, err
	}
	conv := make(map[int32][]int32, len(shortlist))
	for from, tos := range shortlist {
		lst := make([]int32, len(tos))
		for i, t := range tos {
			lst[i] = int32(t)
		}
		conv[int32(from)] = lst
	}
	ors, err := rules.OrCandidates(sig, conv, minSim)
	if err != nil {
		return nil, err
	}
	verified, err := rules.VerifyOrRules(d.m, ors, minSim)
	if err != nil {
		return nil, err
	}
	out := make([]OrRule, len(verified))
	for i, r := range verified {
		out[i] = OrRule{
			From: int(r.From), To: [2]int{int(r.To[0]), int(r.To[1])},
			Estimate: r.Estimate, Similarity: r.Exact,
		}
	}
	return out, nil
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
