package rules

import (
	"context"
	"math"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
	"assocmine/internal/verify"
)

// caviarFixture builds the paper's motivating scenario: two rare items
// ("caviar", "vodka") almost always bought together, drowned in
// high-support noise items.
func caviarFixture(rng *hashing.SplitMix64, rows int) (*matrix.Matrix, int, int) {
	const caviar, vodka = 0, 1
	b := matrix.NewBuilder(rows, 6)
	for r := 0; r < rows; r++ {
		if rng.Float64() < 0.01 { // rare basket
			b.Set(r, caviar)
			b.Set(r, vodka)
		}
		for c := 2; c < 6; c++ {
			if rng.Float64() < 0.3 {
				b.Set(r, c)
			}
		}
	}
	return b.Build(), caviar, vodka
}

func TestCandidatesFindRareHighConfidenceRule(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m, caviar, vodka := caviarFixture(rng, 5000)
	if exactConfidence(m, caviar, vodka) < 0.99 {
		t.Fatalf("fixture confidence %v too low", exactConfidence(m, caviar, vodka))
	}
	sig, err := mhSketch(m.Stream(), 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	cand := candidates(t, sig, 0.7)
	found := false
	for _, r := range cand {
		if int(r.From) == caviar && int(r.To) == vodka {
			found = true
			if r.Estimate < 0.7 {
				t.Errorf("estimate %v below threshold", r.Estimate)
			}
		}
	}
	if !found {
		t.Error("caviar => vodka not found despite conf ≈ 1")
	}
}

// TestConfidenceEstimatorStatistics: the ratio estimator must converge
// to the true confidence as k grows.
func TestConfidenceEstimatorStatistics(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	b := matrix.NewBuilder(400, 2)
	// C0 ⊂ C1 mostly: conf(0=>1) ≈ 0.8, conf(1=>0) lower.
	for r := 0; r < 400; r++ {
		u := rng.Float64()
		if u < 0.10 {
			b.Set(r, 0)
			b.Set(r, 1)
		} else if u < 0.125 {
			b.Set(r, 0)
		} else if u < 0.35 {
			b.Set(r, 1)
		}
	}
	m := b.Build()
	truth := exactConfidence(m, 0, 1)
	sig, _ := mhSketch(m.Stream(), 4000, 9)
	var est float64
	for _, r := range candidates(t, sig, 0.05) {
		if r.From == 0 && r.To == 1 {
			est = r.Estimate
		}
	}
	if math.Abs(est-truth) > 0.1 {
		t.Errorf("confidence estimate %v, truth %v", est, truth)
	}
}

// verifyRules is phase 3 of a rules run: verify.Verify over the rules
// as directed pairs, admitting by Confidence.
func verifyRules(src matrix.RowSource, cand []Rule, minConf float64) ([]Rule, error) {
	ps := make([]pairs.Scored, len(cand))
	for i, r := range cand {
		ps[i] = pairs.Scored{Pair: pairs.Pair{I: r.From, J: r.To}, Estimate: r.Estimate}
	}
	kept, _, err := verify.Verify(src, ps, verify.Params{Threshold: minConf, Measure: Confidence})
	if err != nil {
		return nil, err
	}
	out := make([]Rule, len(kept))
	for i, p := range kept {
		out[i] = Rule{From: p.I, To: p.J, Estimate: p.Estimate, Exact: p.Exact}
	}
	return out, nil
}

// TestVerifyComputesExactConfidence: a rule is verified by the
// confidence of its own direction, |C_From ∩ C_To| / |C_From|.
func TestVerifyComputesExactConfidence(t *testing.T) {
	m := testutil.Must(matrix.New(5, [][]int32{
		{0, 1, 2},    // C0
		{0, 1, 2, 3}, // C1 ⊇ C0
		{4},
	}))
	cand := []Rule{
		{From: 0, To: 1, Estimate: 0.9},
		{From: 1, To: 0, Estimate: 0.9},
		{From: 0, To: 2, Estimate: 0.9},
	}
	out, err := verifyRules(m.Stream(), cand, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("verified rules = %+v", out)
	}
	if out[0].From != 0 || out[0].To != 1 || out[0].Exact != 1 {
		t.Errorf("rule 0 = %+v, want 0=>1 conf 1", out[0])
	}
	if out[1].From != 1 || out[1].To != 0 || math.Abs(out[1].Exact-0.75) > 1e-12 {
		t.Errorf("rule 1 = %+v, want 1=>0 conf 0.75", out[1])
	}
}

// TestVerifyValidation: the pass rejects a self rule and a column out
// of range, and a Table rejects a confidence outside (0, 1] before it
// gets there.
func TestVerifyValidation(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {1}}))
	if _, err := verifyRules(m.Stream(), []Rule{{From: 0, To: 0}}, 0.5); err == nil {
		t.Error("self rule accepted")
	}
	if _, err := verifyRules(m.Stream(), []Rule{{From: 0, To: 9}}, 0.5); err == nil {
		t.Error("out-of-range rule accepted")
	}
	sig, err := mhSketch(m.Stream(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table(context.Background(), sig, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []float64{0, -0.5, 1.5} {
		if _, err := tab.Rules(conf); err == nil {
			t.Errorf("minConf %v accepted", conf)
		}
	}
}

// TestVerifyDeduplicatesRules: each directed rule is verified once. The
// pass keeps every candidate it is given, so the Table's rules name
// each directed rule at most once.
func TestVerifyDeduplicatesRules(t *testing.T) {
	m, _, _ := caviarFixture(hashing.NewSplitMix64(5), 2000)
	sig, err := mhSketch(m.Stream(), 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := verifyRules(m.Stream(), candidates(t, sig, 0.2), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) == 0 {
		t.Fatal("nothing verified")
	}
	seen := map[[2]int32]bool{}
	for _, r := range verified {
		if seen[[2]int32{r.From, r.To}] {
			t.Errorf("rule %d => %d verified twice", r.From, r.To)
		}
		seen[[2]int32{r.From, r.To}] = true
	}
}

func TestEndToEndPipeline(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m, caviar, vodka := caviarFixture(rng, 4000)
	sig, _ := mhSketch(m.Stream(), 120, 13)
	verified, err := verifyRules(m.Stream(), candidates(t, sig, 0.6), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range verified {
		if int(r.From) == caviar && int(r.To) == vodka {
			found = true
			want := exactConfidence(m, caviar, vodka)
			if math.Abs(r.Exact-want) > 1e-12 {
				t.Errorf("exact conf %v, want %v", r.Exact, want)
			}
		}
		if r.Exact < 0.9 {
			t.Errorf("verified rule %+v below threshold", r)
		}
	}
	if !found {
		t.Error("pipeline lost the caviar => vodka rule")
	}
}

// mhSketch folds src into k min-hash values per column through phase
// 1's own fold, on one worker.
func mhSketch(src matrix.RowSource, k int, seed uint64) (*minhash.Signatures, error) {
	f, _ := fold.For(fold.MinHash)
	st, err := f.New(src.NumCols(), k, seed)
	if err != nil {
		return nil, err
	}
	if _, err := fold.FoldStream(src, st, 1); err != nil {
		return nil, err
	}
	return st.Finish().MH, nil
}

// exactConfidence is the exact confidence of the rule i => j, |C_i ∩ C_j| / |C_i|.
func exactConfidence(m *matrix.Matrix, i, j int) float64 {
	return float64(m.IntersectSize(i, j)) / float64(m.ColumnSize(i))
}
