package rules

import (
	"context"
	"math"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
)

// orFixture: column 0 is (almost) the union of columns 1 and 2, which
// are individually dissimilar to it.
func orFixture(rng *hashing.SplitMix64, rows int) *matrix.Matrix {
	b := matrix.NewBuilder(rows, 4)
	for r := 0; r < rows; r++ {
		u := rng.Float64()
		switch {
		case u < 0.1:
			b.Set(r, 0)
			b.Set(r, 1)
		case u < 0.2:
			b.Set(r, 0)
			b.Set(r, 2)
		case u < 0.25:
			b.Set(r, 3) // noise
		}
	}
	return b.Build()
}

// TestOrSimilarityEstimateMatchesInducedColumn: the componentwise-min
// estimate must equal the MH estimate against the materialised OR
// column.
func TestOrSimilarityEstimateMatchesInducedColumn(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := orFixture(rng, 500)
	m2, orIdx := m.WithOrColumn(1, 2)
	const k, seed = 200, 5
	sig, err := minhash.Compute(m2.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	est := orSimilarityEstimate(sig, 0, 1, 2)
	direct := sig.Estimate(0, orIdx)
	if math.Abs(est-direct) > 1e-12 {
		t.Errorf("orSimilarityEstimate = %v, direct estimate vs materialised column = %v", est, direct)
	}
	// And both should be near the true similarity to the OR column.
	truth := m2.Similarity(0, orIdx)
	if math.Abs(est-truth) > 0.15 {
		t.Errorf("estimate %v far from truth %v", est, truth)
	}
}

func TestOrCandidatesFindDisjunctiveRule(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m := orFixture(rng, 2000)
	sig, _ := minhash.Compute(m.Stream(), 150, 7)
	shortlist := map[int32][]int32{0: {1, 2, 3}}
	cand, err := OrCandidates(sig, shortlist, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range cand {
		if r.From == 0 && r.To == [2]int32{1, 2} {
			found = true
		}
	}
	if !found {
		t.Errorf("c0 => c1 ∨ c2 not found; candidates: %+v", cand)
	}
	// The individual similarities should be too low to pass alone.
	if s := sig.Estimate(0, 1); s >= 0.7 {
		t.Errorf("fixture broken: S(c0,c1) = %v already high", s)
	}
}

func TestOrCandidatesValidation(t *testing.T) {
	sig := &minhash.Signatures{K: 2, M: 3, Vals: make([]uint64, 6)}
	if _, err := OrCandidates(sig, nil, 0); err == nil {
		t.Error("minSim 0 accepted")
	}
	if _, err := OrCandidates(sig, map[int32][]int32{9: {0, 1}}, 0.5); err == nil {
		t.Error("out-of-range antecedent accepted")
	}
	if _, err := OrCandidates(sig, map[int32][]int32{0: {1, 9}}, 0.5); err == nil {
		t.Error("out-of-range consequent accepted")
	}
}

func TestOrCandidatesSkipsDegenerate(t *testing.T) {
	m := matrix.MustNew(10, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	sig, _ := minhash.Compute(m.Stream(), 20, 3)
	// Shortlist includes the antecedent itself and duplicates.
	cand, err := OrCandidates(sig, map[int32][]int32{0: {0, 1, 1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cand {
		if r.To[0] == r.From || r.To[1] == r.From || r.To[0] == r.To[1] {
			t.Errorf("degenerate rule %+v emitted", r)
		}
	}
}

func TestVerifyOrRules(t *testing.T) {
	rng := hashing.NewSplitMix64(9)
	m := orFixture(rng, 2000)
	cand := []OrRule{
		{From: 0, To: [2]int32{1, 2}, Estimate: 0.9}, // genuinely similar
		{From: 3, To: [2]int32{1, 2}, Estimate: 0.9}, // noise: not similar
	}
	out, err := VerifyOrRules(m, cand, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].From != 0 {
		t.Fatalf("verified = %+v", out)
	}
	// Exact value matches a direct computation.
	or := matrix.OrColumns(m.Column(1), m.Column(2))
	inter := len(matrix.AndColumns(m.Column(0), or))
	union := m.ColumnSize(0) + len(or) - inter
	want := float64(inter) / float64(union)
	if math.Abs(out[0].Exact-want) > 1e-12 {
		t.Errorf("exact = %v, want %v", out[0].Exact, want)
	}
	// Validation.
	if _, err := VerifyOrRules(m, cand, 0); err == nil {
		t.Error("minSim 0 accepted")
	}
	if _, err := VerifyOrRules(m, []OrRule{{From: 99, To: [2]int32{0, 1}}}, 0.5); err == nil {
		t.Error("out-of-range rule accepted")
	}
}

func TestAndCandidates(t *testing.T) {
	single := []Rule{
		{From: 0, To: 1, Exact: 0.95},
		{From: 0, To: 2, Exact: 0.90},
		{From: 0, To: 3, Exact: 0.50}, // below threshold
		{From: 5, To: 6, Exact: 0.99}, // lone antecedent
	}
	out, err := AndCandidates(single, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("AndCandidates = %+v", out)
	}
	r := out[0]
	if r.From != 0 || r.To != [2]int32{1, 2} {
		t.Errorf("rule = %+v", r)
	}
	if r.Estimate != 0.90 {
		t.Errorf("estimate = %v, want min(0.95, 0.90)", r.Estimate)
	}
	if _, err := AndCandidates(nil, 0); err == nil {
		t.Error("minConf 0 accepted")
	}
}

func TestAndCandidatesUsesEstimateWhenNoExact(t *testing.T) {
	single := []Rule{
		{From: 0, To: 1, Estimate: 0.95},
		{From: 0, To: 2, Estimate: 0.92},
	}
	out, err := AndCandidates(single, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Estimate != 0.92 {
		t.Fatalf("out = %+v", out)
	}
}

// TestAndRuleSemantics: an AND rule built from two verified rules must
// actually hold in the data (conf(c0 => c1 ∧ c2) high).
func TestAndRuleSemantics(t *testing.T) {
	rng := hashing.NewSplitMix64(6)
	b := matrix.NewBuilder(2000, 3)
	for r := 0; r < 2000; r++ {
		if rng.Float64() < 0.05 {
			b.Set(r, 0)
			b.Set(r, 1)
			b.Set(r, 2)
		} else {
			if rng.Float64() < 0.2 {
				b.Set(r, 1)
			}
			if rng.Float64() < 0.2 {
				b.Set(r, 2)
			}
		}
	}
	m := b.Build()
	sig, _ := minhash.Compute(m.Stream(), 100, 9)
	cand, err := Candidates(context.Background(), sig, Options{MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := verifyRules(m.Stream(), cand, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ands, err := AndCandidates(verified, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ands {
		if r.From == 0 && r.To == [2]int32{1, 2} {
			found = true
		}
	}
	if !found {
		t.Fatalf("c0 => c1 ∧ c2 not derived; singles: %+v", verified)
	}
	// Check conjunction confidence directly.
	and12 := matrix.AndColumns(m.Column(1), m.Column(2))
	interAll := len(matrix.AndColumns(m.Column(0), and12))
	conf := float64(interAll) / float64(m.ColumnSize(0))
	if conf < 0.9 {
		t.Errorf("true conjunction confidence %v below 0.9", conf)
	}
}
