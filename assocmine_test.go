package assocmine

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"assocmine/internal/apriori"
)

func plantedDataset(t *testing.T) (*Dataset, []PlantedPair) {
	t.Helper()
	d, planted, err := GenerateSynthetic(SyntheticOptions{
		Rows: 3000, Cols: 200, PairsPerRange: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, planted
}

func TestNewDatasetFromRows(t *testing.T) {
	d, err := NewDatasetFromRows(3, [][]int{{0, 1}, {1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 || d.NumCols() != 3 || d.Ones() != 5 {
		t.Fatalf("dims %dx%d ones %d", d.NumRows(), d.NumCols(), d.Ones())
	}
	if _, err := NewDatasetFromRows(2, [][]int{{5}}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

// confidence is the exact confidence of the rule i => j, |c_i ∩ c_j| /
// |c_i| (0 for an empty c_i).
func confidence(d *Dataset, i, j int) float64 {
	if d.ColumnSize(i) == 0 {
		return 0
	}
	return float64(d.m.IntersectSize(i, j)) / float64(d.ColumnSize(i))
}

func TestNewDatasetFromColumns(t *testing.T) {
	d, err := NewDatasetFromColumns(4, [][]int{{0, 1}, {0, 1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Similarity(0, 1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Similarity(0,1) = %v", got)
	}
	if got := confidence(d, 0, 1); got != 1 {
		t.Errorf("Confidence(0,1) = %v", got)
	}
	if d.ColumnSize(1) != 3 || math.Abs(d.Density(1)-0.75) > 1e-12 {
		t.Error("ColumnSize/Density wrong")
	}
	if _, err := NewDatasetFromColumns(2, [][]int{{1, 0}}); err == nil {
		t.Error("unsorted column accepted")
	}
}

func TestDatasetSaveLoad(t *testing.T) {
	d, _ := NewDatasetFromRows(3, [][]int{{0, 1}, {1}, {2}})
	for _, name := range []string{"d.txt", "d.arows", "d.carows"} {
		path := filepath.Join(t.TempDir(), name)
		if err := d.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ones() != d.Ones() || got.NumRows() != d.NumRows() {
			t.Errorf("%s round trip mismatch", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	d, _ := NewDatasetFromRows(2, [][]int{{0}, {1}})
	bad := []Config{
		{Threshold: 0},
		{Threshold: 1.5},
		{Threshold: 0.5, K: -1},
		{Threshold: 0.5, Delta: 1},
		{Threshold: 0.5, R: -2},
		{Threshold: 0.5, L: -1},
		{Threshold: 0.5, Algorithm: MinLSH, K: 3, R: 5},
		{Threshold: 0.5, Algorithm: Apriori}, // missing MinSupport
		{Threshold: 0.5, Algorithm: Algorithm(99)},
	}
	for i, cfg := range bad {
		if _, err := SimilarPairs(d, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		BruteForce: "BruteForce", MinHash: "MH", KMinHash: "K-MH",
		MinLSH: "M-LSH", HammingLSH: "H-LSH", Apriori: "A-priori",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm has empty String")
	}
}

// TestAllAlgorithmsRecoverPlantedPairs is the headline integration
// test: every scheme must recover the high-similarity planted pairs,
// and verification must leave no false positives.
func TestAllAlgorithmsRecoverPlantedPairs(t *testing.T) {
	d, planted := plantedDataset(t)
	const threshold = 0.7

	truth, err := SimilarPairs(d, Config{Algorithm: BruteForce, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	truthSet := map[[2]int]float64{}
	for _, p := range truth.Pairs {
		truthSet[[2]int{p.I, p.J}] = p.Similarity
	}
	// Sanity: the planted pairs above threshold appear in truth.
	expected := 0
	for _, p := range planted {
		if d.Similarity(p.I, p.J) >= threshold {
			expected++
			if _, ok := truthSet[[2]int{p.I, p.J}]; !ok {
				t.Fatalf("ground truth missing planted pair %+v", p)
			}
		}
	}
	if expected == 0 {
		t.Fatal("fixture has no planted pairs above threshold")
	}

	configs := []Config{
		{Algorithm: MinHash, Threshold: threshold, K: 100, Seed: 5},
		{Algorithm: KMinHash, Threshold: threshold, K: 100, Seed: 5},
		{Algorithm: MinLSH, Threshold: threshold, K: 100, R: 5, L: 20, Seed: 5},
		{Algorithm: HammingLSH, Threshold: threshold, R: 8, L: 15, Seed: 5},
	}
	for _, cfg := range configs {
		res, err := SimilarPairs(d, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		found := map[[2]int]bool{}
		for _, p := range res.Pairs {
			found[[2]int{p.I, p.J}] = true
			// No false positives after verification.
			if want, ok := truthSet[[2]int{p.I, p.J}]; !ok {
				t.Errorf("%v: false positive (%d,%d) sim %v", cfg.Algorithm, p.I, p.J, p.Similarity)
			} else if math.Abs(p.Similarity-want) > 1e-12 {
				t.Errorf("%v: similarity mismatch on (%d,%d)", cfg.Algorithm, p.I, p.J)
			}
		}
		// Recall on comfortably-above-threshold planted pairs.
		for _, p := range planted {
			if d.Similarity(p.I, p.J) >= threshold+0.1 && !found[[2]int{p.I, p.J}] {
				t.Errorf("%v: missed planted pair (%d,%d) sim %v",
					cfg.Algorithm, p.I, p.J, d.Similarity(p.I, p.J))
			}
		}
		if res.Stats.Candidates < res.Stats.Verified {
			t.Errorf("%v: stats inconsistent: %+v", cfg.Algorithm, res.Stats)
		}
	}
}

func TestPairsSortedBySimilarity(t *testing.T) {
	d, _ := plantedDataset(t)
	res, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.4, K: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i].Similarity > res.Pairs[i-1].Similarity {
			t.Fatal("pairs not sorted by decreasing similarity")
		}
	}
}

func TestSkipVerify(t *testing.T) {
	d, _ := plantedDataset(t)
	res, err := SimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.7, K: 50, R: 5, L: 10, Seed: 2, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VerifyTime != 0 {
		t.Error("SkipVerify ran verification")
	}
	for _, p := range res.Pairs {
		if p.Similarity != 0 {
			t.Error("SkipVerify filled Similarity")
		}
	}
}

func TestAprioriPath(t *testing.T) {
	// Apriori with adequate support succeeds and matches brute force
	// restricted to frequent pairs.
	d, err := NewDatasetFromRows(6, [][]int{
		{0, 1}, {0, 1}, {0, 1}, {0, 1}, {2}, {2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimilarPairs(d, Config{Algorithm: Apriori, Threshold: 0.9, MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].I != 0 || res.Pairs[0].J != 1 {
		t.Fatalf("apriori pairs = %+v", res.Pairs)
	}
	if res.Pairs[0].Similarity != 1 {
		t.Errorf("similarity = %v", res.Pairs[0].Similarity)
	}
}

func TestAprioriMemoryBudgetSurfaces(t *testing.T) {
	d, _ := plantedDataset(t)
	_, err := SimilarPairs(d, Config{
		Algorithm: Apriori, Threshold: 0.5, MinSupport: 0.001, MemoryBudget: 128,
	})
	if !errors.Is(err, apriori.ErrMemoryBudget) {
		t.Errorf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	d, _ := plantedDataset(t)
	cfg := Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 5, L: 12, Seed: 77}
	a, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("same config, different pair counts: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestMineRules(t *testing.T) {
	// Rare pair with near-1 confidence in both directions.
	rows := make([][]int, 2000)
	for r := range rows {
		switch {
		case r%100 == 0:
			rows[r] = []int{0, 1}
		case r%3 == 0:
			rows[r] = []int{2}
		case r%7 == 0:
			rows[r] = []int{3, 2}
		default:
			rows[r] = nil
		}
	}
	d, err := NewDatasetFromRows(4, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimilarPairs(d, Config{Algorithm: Rules, Threshold: 0.9, K: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var found01 bool
	for _, r := range res.Pairs {
		if r.I == 0 && r.J == 1 {
			found01 = true
			if r.Similarity != 1 {
				t.Errorf("conf(0=>1) = %v, want 1", r.Similarity)
			}
		}
		if r.Similarity < 0.9 {
			t.Errorf("rule %+v below threshold", r)
		}
	}
	if !found01 {
		t.Error("rule 0 => 1 not mined")
	}
	// 3 => 2 should also surface (every row with 3 has 2).
	var found32 bool
	for _, r := range res.Pairs {
		if r.I == 3 && r.J == 2 {
			found32 = true
		}
	}
	if !found32 {
		t.Error("rule 3 => 2 not mined")
	}
}

func TestMineRulesValidation(t *testing.T) {
	d, _ := NewDatasetFromRows(2, [][]int{{0}, {1}})
	for _, cfg := range []Config{{Threshold: 0}, {Threshold: 2}, {Threshold: 0.5, K: -1}, {Threshold: 0.5, Delta: 1}} {
		cfg.Algorithm = Rules
		if _, err := SimilarPairs(d, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestOrAndRules(t *testing.T) {
	rows := make([][]int, 3000)
	for r := range rows {
		switch {
		case r%40 == 0:
			rows[r] = []int{0, 1} // half of c0 with c1
		case r%40 == 1:
			rows[r] = []int{0, 2} // other half with c2
		case r%17 == 0:
			rows[r] = []int{3}
		}
	}
	d, err := NewDatasetFromRows(4, rows)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := ComputeSignatures(d, 200, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ors, err := OrRules(d, sig, map[int][]int{0: {1, 2, 3}}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var foundOr bool
	for _, r := range ors {
		if r.From == 0 && r.To == [2]int{1, 2} {
			foundOr = true
		}
	}
	if !foundOr {
		t.Errorf("c0 => c1 ∨ c2 not found: %+v", ors)
	}
	ands, err := AndRules([]Pair{
		{I: 0, J: 1, Similarity: 0.95},
		{I: 0, J: 2, Similarity: 0.93},
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ands) != 1 || ands[0].To != [2]int{1, 2} {
		t.Fatalf("AndRules = %+v", ands)
	}
}

func TestGenerateWrappers(t *testing.T) {
	if _, _, err := GenerateSynthetic(SyntheticOptions{}); err == nil {
		t.Error("empty synthetic options accepted")
	}
	w, err := GenerateWebLog(WebLogOptions{Clients: 300, URLs: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Data.NumRows() != 300 || len(w.Groups) != len(w.Parents) {
		t.Error("weblog wrapper shape wrong")
	}
	n, err := GenerateNews(NewsOptions{Docs: 300, Vocab: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Words) != n.Data.NumCols() {
		t.Error("news wrapper shape wrong")
	}
	if n.Word(n.PlantedPairs[0][0]) == "" {
		t.Error("Word accessor broken")
	}
}
