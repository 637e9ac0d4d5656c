package rules

import (
	"math"
	"slices"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/testutil"
)

// withOrColumn returns a copy of m with the induced column c_i ∨ c_j
// appended, and that column's index.
func withOrColumn(m *matrix.Matrix, i, j int) (*matrix.Matrix, int) {
	cols := make([][]int32, m.NumCols(), m.NumCols()+1)
	for c := range cols {
		cols[c] = m.Column(c)
	}
	or := slices.Concat(m.Column(i), m.Column(j))
	slices.Sort(or)
	cols = append(cols, slices.Compact(or))
	return testutil.Must(matrix.New(m.NumRows(), cols)), len(cols) - 1
}

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
	m2, orIdx := withOrColumn(m, 1, 2)
	const k, seed = 200, 5
	sig, err := mhSketch(m2.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	est := orSimilarityEstimate(sig, 0, 1, 2)
	direct := estimate(sig, 0, orIdx)
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
	sig, _ := mhSketch(m.Stream(), 150, 7)
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
	if s := estimate(sig, 0, 1); s >= 0.7 {
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
	m := testutil.Must(matrix.New(10, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}))
	sig, _ := mhSketch(m.Stream(), 20, 3)
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

// TestOrRulesOrderIsDeterministic: when every estimate ties, the rules
// of one antecedent differ in To alone, so OrCandidates' sort must key
// on To[1] too or its order follows the shortlist map's iteration and
// the unstable sort. (The root's TestOrRulesMatchesOracle holds the
// sort after the exact pass on the same fixture.)
func TestOrRulesOrderIsDeterministic(t *testing.T) {
	// 14 identical columns: every OR column equals every antecedent.
	cols := make([][]int32, 14)
	for c := range cols {
		cols[c] = []int32{0, 2, 3, 5, 7, 11}
	}
	m := testutil.Must(matrix.New(12, cols))
	sig := testutil.Must(mhSketch(m.Stream(), 64, 1))
	// Six antecedents, each shortlisting the 13 other columns; order
	// shuffles the shortlist order and the map's insertion order.
	shortlist := func(order uint64) map[int32][]int32 {
		rng := hashing.NewSplitMix64(order)
		out := map[int32][]int32{}
		for _, from := range rng.Perm(6) {
			var tos []int32
			for _, c := range rng.Perm(len(cols)) {
				if c != from {
					tos = append(tos, int32(c))
				}
			}
			out[int32(from)] = tos
		}
		return out
	}
	rulesOf := func(order uint64) []OrRule {
		ors := testutil.Must(OrCandidates(sig, shortlist(order), 0.5))
		if len(ors) != 6*13*12/2 {
			t.Fatalf("%d candidates, want %d", len(ors), 6*13*12/2)
		}
		return ors
	}
	want := rulesOf(0)
	for order := uint64(0); order < 50; order++ {
		got := rulesOf(order)
		if len(got) != len(want) {
			t.Fatalf("order %d: %d rules, want %d", order, len(got), len(want))
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("order %d: rule %d = %+v, want %+v", order, x, got[x], want[x])
			}
		}
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
	sig, _ := mhSketch(m.Stream(), 100, 9)
	verified, err := verifyRules(m.Stream(), candidates(t, sig, 0.6), 0.9)
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
	interAll := 0
	for _, r := range m.Column(0) {
		_, in1 := slices.BinarySearch(m.Column(1), r)
		_, in2 := slices.BinarySearch(m.Column(2), r)
		if in1 && in2 {
			interAll++
		}
	}
	conf := float64(interAll) / float64(m.ColumnSize(0))
	if conf < 0.9 {
		t.Errorf("true conjunction confidence %v below 0.9", conf)
	}
}

// estimate is Ŝ(c_i, c_j) of Definition 1: the fraction of hash indices
// on which the columns' min-hash values agree (never on empty columns).
func estimate(sig *minhash.Signatures, i, j int) float64 {
	agree := 0
	for l := 0; l < sig.K; l++ {
		if v := sig.Vals[l*sig.M+i]; v != minhash.Empty && v == sig.Vals[l*sig.M+j] {
			agree++
		}
	}
	return float64(agree) / float64(sig.K)
}
