package gen

import (
	"math"
	"testing"

	"assocmine/internal/hashing"
)

func TestWebLogValidation(t *testing.T) {
	bad := []WebLogConfig{
		{Clients: 0, URLs: 100},
		{Clients: 100, URLs: 0},
		{Clients: 100, URLs: 5}, // a parent page and its resources need 6
	}
	for i, cfg := range bad {
		if _, err := GenerateWebLog(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestWebLogShape(t *testing.T) {
	w, err := GenerateWebLog(WebLogConfig{Clients: 3000, URLs: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Matrix
	if m.NumRows() != 3000 || m.NumCols() != 600 {
		t.Fatalf("dims %dx%d", m.NumRows(), m.NumCols())
	}
	if len(w.Groups) != len(w.Parents) {
		t.Fatalf("%d groups, %d parents", len(w.Groups), len(w.Parents))
	}
	// Overall density must be low (the Sun data regime).
	density := float64(m.Ones()) / float64(m.NumRows()*m.NumCols())
	if density > 0.05 {
		t.Errorf("overall density %v too high for a web-log workload", density)
	}
}

// TestWebLogResourceGroupsAreSimilar: embedded resources of the same
// parent must be highly similar — the paper's explanation of its own
// similar pairs.
func TestWebLogResourceGroupsAreSimilar(t *testing.T) {
	w, err := GenerateWebLog(WebLogConfig{Clients: 5000, URLs: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Matrix
	checked, high := 0, 0
	for _, group := range w.Groups {
		for a := 0; a < len(group); a++ {
			for b := a + 1; b < len(group); b++ {
				// Only score pairs whose parent got real traffic.
				if m.ColumnSize(int(group[a])) < 20 {
					continue
				}
				checked++
				if m.Similarity(int(group[a]), int(group[b])) > 0.7 {
					high++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trafficked resource groups to check")
	}
	if float64(high) < 0.8*float64(checked) {
		t.Errorf("only %d/%d resource pairs highly similar", high, checked)
	}
}

// TestWebLogLShapedDistribution: the bulk of column pairs must have
// near-zero similarity (Fig. 3's shape).
func TestWebLogLShapedDistribution(t *testing.T) {
	w, err := GenerateWebLog(WebLogConfig{Clients: 2000, URLs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Matrix
	rng := hashing.NewSplitMix64(9)
	low, total := 0, 0
	for trial := 0; trial < 3000; trial++ {
		i, j := rng.Intn(m.NumCols()), rng.Intn(m.NumCols())
		if i == j {
			continue
		}
		total++
		if m.Similarity(i, j) < 0.1 {
			low++
		}
	}
	if float64(low) < 0.9*float64(total) {
		t.Errorf("only %d/%d sampled pairs near zero similarity", low, total)
	}
}

func TestWebLogDeterministic(t *testing.T) {
	a, err := GenerateWebLog(WebLogConfig{Clients: 500, URLs: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWebLog(WebLogConfig{Clients: 500, URLs: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrix.Ones() != b.Matrix.Ones() {
		t.Error("same seed produced different matrices")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	const lambda, trials = 6.0, 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-lambda) > 0.15 {
		t.Errorf("poisson mean %v, want %v", mean, lambda)
	}
}

func TestSearchCum(t *testing.T) {
	cum := []float64{1, 3, 6, 10}
	cases := []struct {
		target float64
		want   int
	}{
		{0.5, 0}, {1, 0}, {1.1, 1}, {3.5, 2}, {9.99, 3}, {10, 3},
	}
	for _, c := range cases {
		if got := searchCum(cum, c.target); got != c.want {
			t.Errorf("searchCum(%v) = %d, want %d", c.target, got, c.want)
		}
	}
}
