package assocmine

import (
	"context"
	"fmt"

	"assocmine/internal/candidate"
	"assocmine/internal/driver"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/rules"
	"assocmine/internal/verify"
)

// Rule is a directed high-confidence association rule From => To
// (Section 6: association rules without support pruning).
type Rule struct {
	From, To int
	// Estimate is the signature-based confidence estimate.
	Estimate float64
	// Confidence is the exact verified confidence.
	Confidence float64
}

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

// RuleConfig controls MineRules.
type RuleConfig struct {
	// MinConfidence is the confidence threshold. Required, in (0,1].
	MinConfidence float64
	// K is the number of min-hash values; default 200 (confidence
	// estimation needs a bigger sketch than similarity, as Section 6
	// notes).
	K int
	// Delta loosens the candidate filter: candidates need estimated
	// confidence >= (1-Delta)*MinConfidence. Default 0.3.
	Delta float64
	// Seed drives hashing.
	Seed uint64
	// SkipVerify skips the exact confidence pass.
	SkipVerify bool
	// Context, when non-nil, cancels the run: the signature and
	// verification scans check it at row granularity and return
	// ctx.Err() promptly once it is done. nil means run to completion.
	Context context.Context
}

func (c *RuleConfig) setDefaults() error {
	if c.MinConfidence <= 0 || c.MinConfidence > 1 {
		return fmt.Errorf("assocmine: MinConfidence must be in (0,1], got %v", c.MinConfidence)
	}
	if c.K == 0 {
		c.K = 200
	}
	if c.K < 1 {
		return fmt.Errorf("assocmine: K must be positive, got %d", c.K)
	}
	if c.Delta == 0 {
		c.Delta = 0.3
	}
	if c.Delta < 0 || c.Delta >= 1 {
		return fmt.Errorf("assocmine: Delta must be in [0,1), got %v", c.Delta)
	}
	return nil
}

// RulesResult is the output of MineRules.
type RulesResult struct {
	Rules []Rule
	Stats Stats
}

// MineRules finds all rules c_i => c_j with confidence >=
// cfg.MinConfidence, regardless of support, using min-hash confidence
// estimation (Section 6) followed by exact verification.
func MineRules(d *Dataset, cfg RuleConfig) (*RulesResult, error) {
	return mineRules(d.m.Stream(), nil, cfg)
}

// MineRules mines rules straight from the file: one sequential pass for
// the signature sketch, one for exact confidence verification.
func (f *FileDataset) MineRules(cfg RuleConfig) (*RulesResult, error) {
	return mineRules(f.src, nil, cfg)
}

// MineRulesWithSignatures answers a rules query from a resident
// min-hash sketch: the Section 6 confidence estimation runs over the
// precomputed signatures (skipping the signature pass entirely) — its
// O(k·m²) sweep once per sketch, later queries filtering the statistics
// it left — and only the exact verification pass scans d. cfg.K is ignored — the
// sketch's own K governs estimation accuracy, so serve rule queries
// from a sketch computed with K >= 200.
func MineRulesWithSignatures(d *Dataset, s *Signatures, cfg RuleConfig) (*RulesResult, error) {
	if s.sig.M != d.NumCols() {
		return nil, fmt.Errorf("assocmine: sketch covers %d columns, dataset has %d", s.sig.M, d.NumCols())
	}
	cfg.K = s.sig.K
	return mineRules(d.m.Stream(), &driver.Adopted{Sketch: fold.Sketch{MH: s.sig}, Triangle: &s.triangle}, cfg)
}

// mineRules is §6 as the paper gives it — the §2 template again — so it
// is the driver's four steps over the MH fold (or the adopted sketch)
// with the rules scheme, on one worker and with no recorder; Stats is
// what the run counted. Verified rules come by decreasing confidence,
// unverified ones in the estimate order phase 2 left.
func mineRules(src matrix.RowSource, pre *driver.Adopted, cfg RuleConfig) (*RulesResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	in := driver.Input{
		Src: src, Rules: true, Adopted: pre, SkipVerify: cfg.SkipVerify, Column: -1,
		Params: candidate.Params{Algo: fold.MinHash, K: cfg.K, Seed: cfg.Seed, Threshold: cfg.MinConfidence, Delta: cfg.Delta},
		Verify: verify.Params{Workers: 1, Context: cfg.Context},
	}
	res, err := similar(in, Config{Algorithm: MinHash}, driver.Mine)
	if err != nil {
		return nil, err
	}
	out := make([]Rule, len(res.Pairs))
	for i, p := range res.Pairs {
		out[i] = Rule{From: p.I, To: p.J, Estimate: p.Estimate, Confidence: p.Similarity}
	}
	return &RulesResult{Rules: out, Stats: res.Stats}, nil
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
// single rules (Section 7's cardinality construction).
func AndRules(verified []Rule, minConf float64) ([]AndRule, error) {
	conv := make([]rules.Rule, len(verified))
	for i, r := range verified {
		conv[i] = rules.Rule{From: int32(r.From), To: int32(r.To), Estimate: r.Estimate, Exact: r.Confidence}
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
