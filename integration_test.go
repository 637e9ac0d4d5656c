package assocmine

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Cross-cutting integration tests at the public-API level.

func TestTransactionsPublicRoundTrip(t *testing.T) {
	d, err := NewDatasetFromRows(4, [][]int{{0, 1}, {2}, {0, 1, 3}, {}})
	if err != nil {
		t.Fatal(err)
	}
	// d's rows under the names milk, bread, beer and chips.
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := os.WriteFile(path, []byte("# milk, bread, beer, chips\nmilk bread\nbeer\nmilk bread chips\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotNames, err := LoadTransactions(path)
	if err != nil {
		t.Fatal(err)
	}
	// Names come back in first-appearance order, which here matches the
	// column order of rows containing them; map and compare content.
	if got.Ones() != d.Ones() || got.NumRows() != d.NumRows() {
		t.Fatalf("round trip: %dx%d with %d ones", got.NumRows(), got.NumCols(), got.Ones())
	}
	idx := map[string]int{}
	for i, n := range gotNames {
		idx[n] = i
	}
	// milk & bread are perfectly similar in both.
	if got.Similarity(idx["milk"], idx["bread"]) != d.Similarity(0, 1) {
		t.Error("similarity changed across transaction round trip")
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{
		SignatureTime: 2 * time.Millisecond,
		CandidateTime: 3 * time.Millisecond,
		VerifyTime:    5 * time.Millisecond,
	}
	if s.Total() != 10*time.Millisecond {
		t.Errorf("Total = %v", s.Total())
	}
}

func TestOrRulesExactSimilarity(t *testing.T) {
	rows := make([][]int, 2000)
	for r := range rows {
		switch {
		case r%30 == 0:
			rows[r] = []int{0, 1}
		case r%30 == 1:
			rows[r] = []int{0, 2}
		}
	}
	d, err := NewDatasetFromRows(3, rows)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := ComputeSignatures(d, 200, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ors, err := OrRules(d, sig, map[int][]int{0: {1, 2}}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ors) == 0 {
		t.Fatal("no OR rules found")
	}
	r := ors[0]
	if r.Similarity < 0.7 {
		t.Errorf("verified similarity %v below threshold", r.Similarity)
	}
	// Exact check: c0 = c1 ∪ c2 exactly, so similarity is 1.
	if r.Similarity != 1 {
		t.Errorf("similarity = %v, want 1", r.Similarity)
	}
	// A sketch of another column count is refused.
	wide, err := NewDatasetFromRows(4, rows)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ComputeSignatures(wide, 200, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OrRules(d, other, map[int][]int{0: {1, 2}}, 0.7); err == nil {
		t.Error("a sketch of 4 columns accepted for a dataset of 3")
	}
}

// TestSeedIndependenceOfExactness: different seeds change which pairs
// the probabilistic schemes find, but never the exactness of what is
// reported.
func TestSeedIndependenceOfExactness(t *testing.T) {
	d, _ := plantedDataset(t)
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := SimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.6, K: 40, R: 4, L: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Pairs {
			if got := d.Similarity(p.I, p.J); got != p.Similarity {
				t.Fatalf("seed %d: reported %v, exact %v", seed, p.Similarity, got)
			}
			if p.Similarity < 0.6 {
				t.Fatalf("seed %d: below-threshold pair reported", seed)
			}
		}
	}
}
