package gen

import (
	"testing"
)

func TestNewsValidation(t *testing.T) {
	bad := []NewsConfig{
		{Docs: 0, Vocab: 100},
		{Docs: 100, Vocab: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateNews(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewsShape(t *testing.T) {
	n, err := GenerateNews(NewsConfig{Docs: 2000, Vocab: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCols := 500 + 2*len(fig1Collocations()) + len(chessCluster())
	if n.Matrix.NumCols() != wantCols {
		t.Fatalf("cols = %d, want %d", n.Matrix.NumCols(), wantCols)
	}
	if len(n.Words) != wantCols {
		t.Fatalf("words = %d", len(n.Words))
	}
	if len(n.PlantedPairs) != len(fig1Collocations()) {
		t.Fatalf("planted pairs = %d", len(n.PlantedPairs))
	}
	if len(n.ClusterCols) != len(chessCluster()) {
		t.Fatalf("cluster cols = %d", len(n.ClusterCols))
	}
}

// TestNewsCollocationsLowSupportHighSimilarity: planted pairs must be
// rare (low support) yet highly similar — the exact regime the paper
// targets.
func TestNewsCollocationsLowSupportHighSimilarity(t *testing.T) {
	n, err := GenerateNews(NewsConfig{Docs: 30000, Vocab: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := n.Matrix
	highSim := 0
	for _, p := range n.PlantedPairs {
		// Low support: well under 2% of documents.
		if m.Density(int(p.I)) > 0.02 || m.Density(int(p.J)) > 0.02 {
			t.Errorf("planted word pair (%s,%s) has high support: %v / %v",
				n.Words[p.I], n.Words[p.J], m.Density(int(p.I)), m.Density(int(p.J)))
		}
		if m.Similarity(int(p.I), int(p.J)) > 0.6 {
			highSim++
		}
	}
	if highSim < len(n.PlantedPairs)*3/4 {
		t.Errorf("only %d/%d collocations highly similar", highSim, len(n.PlantedPairs))
	}
}

// TestNewsClusterPairwiseSimilar: most cluster word pairs must have
// noticeable similarity.
func TestNewsClusterPairwiseSimilar(t *testing.T) {
	n, err := GenerateNews(NewsConfig{Docs: 30000, Vocab: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := n.Matrix
	good, total := 0, 0
	for a := 0; a < len(n.ClusterCols); a++ {
		for b := a + 1; b < len(n.ClusterCols); b++ {
			total++
			if m.Similarity(int(n.ClusterCols[a]), int(n.ClusterCols[b])) > 0.4 {
				good++
			}
		}
	}
	if good < total*3/4 {
		t.Errorf("only %d/%d cluster pairs similar", good, total)
	}
}

// TestNewsBackgroundIsZipf: the most frequent background word must be
// far more frequent than the median one.
func TestNewsBackgroundIsZipf(t *testing.T) {
	n, err := GenerateNews(NewsConfig{Docs: 5000, Vocab: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := n.Matrix
	top := m.ColumnSize(0) // Zipf rank order is shuffled only in weblog; news keeps rank = column
	mid := m.ColumnSize(500)
	if top < 5*mid {
		t.Errorf("head word count %d not >> median word count %d", top, mid)
	}
}

func TestNewsDeterministic(t *testing.T) {
	a, _ := GenerateNews(NewsConfig{Docs: 500, Vocab: 100, Seed: 9})
	b, _ := GenerateNews(NewsConfig{Docs: 500, Vocab: 100, Seed: 9})
	if a.Matrix.Ones() != b.Matrix.Ones() {
		t.Error("same seed produced different corpora")
	}
}

func TestFig1CollocationsComplete(t *testing.T) {
	cs := fig1Collocations()
	if len(cs) != 17 {
		t.Errorf("Fig. 1 has 17 pairs, got %d", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if c.A == "" || c.B == "" || c.A == c.B {
			t.Errorf("bad collocation %+v", c)
		}
		if seen[c.A+"|"+c.B] {
			t.Errorf("duplicate collocation %+v", c)
		}
		seen[c.A+"|"+c.B] = true
	}
}
