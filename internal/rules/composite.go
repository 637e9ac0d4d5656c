package rules

import (
	"fmt"
	"sort"

	"assocmine/internal/minhash"
)

// The Section 7 composite-rule machinery: disjunctive consequents via
// OR-composed signatures and conjunctive consequents via the
// cardinality comparison.

// OrRule is a candidate rule From => To[0] ∨ To[1].
type OrRule struct {
	From     int32
	To       [2]int32
	Estimate float64 // estimated similarity S(c_From, c_To0 ∨ c_To1)
	Exact    float64
}

// AndRule is a candidate rule From => To[0] ∧ To[1].
type AndRule struct {
	From     int32
	To       [2]int32
	Estimate float64 // min of the two single-rule confidence estimates
}

// orSimilarityEstimate returns the estimated similarity between column
// i and the induced column c_j ∨ c_j2, computed entirely from the MH
// signature matrix: the OR column's signature is the component-wise
// minimum (Section 7), so no second data pass is needed.
func orSimilarityEstimate(sig *minhash.Signatures, i, j, j2 int) float64 {
	agree := 0
	for l := 0; l < sig.K; l++ {
		vi := sig.Vals[l*sig.M+i]
		vo := sig.Vals[l*sig.M+j]
		if v2 := sig.Vals[l*sig.M+j2]; v2 < vo {
			vo = v2
		}
		if vi != minhash.Empty && vi == vo {
			agree++
		}
	}
	return float64(agree) / float64(sig.K)
}

// OrCandidates enumerates rules c_i => c_j ∨ c_j2 whose estimated
// similarity between c_i and the OR column meets minSim, restricted to
// consequent pairs drawn from the given shortlist (the full triple
// enumeration is cubic; the paper suggests composing columns that are
// already individually related to c_i). shortlist maps each antecedent
// column to consequent columns worth trying.
func OrCandidates(sig *minhash.Signatures, shortlist map[int32][]int32, minSim float64) ([]OrRule, error) {
	if minSim <= 0 || minSim > 1 {
		return nil, fmt.Errorf("rules: minSim must be in (0,1], got %v", minSim)
	}
	var out []OrRule
	for from, tos := range shortlist {
		if int(from) >= sig.M || from < 0 {
			return nil, fmt.Errorf("rules: shortlist antecedent %d out of range", from)
		}
		for a := 0; a < len(tos); a++ {
			for b := a + 1; b < len(tos); b++ {
				j, j2 := tos[a], tos[b]
				if int(j) >= sig.M || int(j2) >= sig.M || j < 0 || j2 < 0 {
					return nil, fmt.Errorf("rules: shortlist consequent out of range")
				}
				if j == int32(from) || j2 == int32(from) || j == j2 {
					continue
				}
				if s := orSimilarityEstimate(sig, int(from), int(j), int(j2)); s >= minSim {
					to := [2]int32{j, j2}
					if to[0] > to[1] {
						to[0], to[1] = to[1], to[0]
					}
					out = append(out, OrRule{From: from, To: to, Estimate: s})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Estimate != out[b].Estimate {
			return out[a].Estimate > out[b].Estimate
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		if out[a].To[0] != out[b].To[0] {
			return out[a].To[0] < out[b].To[0]
		}
		return out[a].To[1] < out[b].To[1]
	})
	return out, nil
}

// AndCandidates implements the Section 7 conjunction construction:
// "c_i implies c_j ∧ c_j'" holds exactly when both c_i => c_j and
// c_i => c_j' hold (the extra cardinality condition |C_i| ≈ |C_i ∩ C_j
// ∩ C_j'| is subsumed by requiring both single-rule confidences high).
// Given verified single rules it pairs up rules sharing an antecedent
// whose confidences both meet minConf.
func AndCandidates(single []Rule, minConf float64) ([]AndRule, error) {
	if minConf <= 0 || minConf > 1 {
		return nil, fmt.Errorf("rules: minConf must be in (0,1], got %v", minConf)
	}
	byFrom := map[int32][]Rule{}
	for _, r := range single {
		conf := r.Exact
		if conf == 0 {
			conf = r.Estimate
		}
		if conf >= minConf {
			byFrom[r.From] = append(byFrom[r.From], r)
		}
	}
	var out []AndRule
	for from, rs := range byFrom {
		sort.Slice(rs, func(a, b int) bool { return rs[a].To < rs[b].To })
		for a := 0; a < len(rs); a++ {
			for b := a + 1; b < len(rs); b++ {
				ca, cb := rs[a].Exact, rs[b].Exact
				if ca == 0 {
					ca = rs[a].Estimate
				}
				if cb == 0 {
					cb = rs[b].Estimate
				}
				est := ca
				if cb < est {
					est = cb
				}
				out = append(out, AndRule{
					From:     from,
					To:       [2]int32{rs[a].To, rs[b].To},
					Estimate: est,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		if out[a].To[0] != out[b].To[0] {
			return out[a].To[0] < out[b].To[0]
		}
		return out[a].To[1] < out[b].To[1]
	})
	return out, nil
}
