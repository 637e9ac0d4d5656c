package gen

import (
	"math"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
)

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Rows: 0, Cols: 10},
		{Rows: 10, Cols: 0},
		{Rows: 10, Cols: 10, MinDensity: 0.5, MaxDensity: 0.1},
		{Rows: 10, Cols: 10, MinDensity: -0.1, MaxDensity: 0.1},
		{Rows: 10, Cols: 4, PairsPerRange: 10},
		{Rows: 10, Cols: 10, PairsPerRange: -1},
	}
	for i, cfg := range bad {
		if _, _, err := Synthetic(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSyntheticDimensionsAndDensity(t *testing.T) {
	m, planted, err := Synthetic(SyntheticConfig{Rows: 2000, Cols: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 2000 || m.NumCols() != 500 {
		t.Fatalf("dims %dx%d", m.NumRows(), m.NumCols())
	}
	// Default: 500/100/5 = 1 pair per range, 5 ranges.
	if len(planted) != 5 {
		t.Fatalf("planted %d pairs, want 5", len(planted))
	}
	// All densities within (loose) range.
	for c := 0; c < m.NumCols(); c++ {
		d := m.Density(c)
		if d > 0.10 {
			t.Errorf("column %d density %v way above max", c, d)
		}
	}
}

// TestSyntheticPlantedSimilarities: realised similarities must land
// near their targets.
func TestSyntheticPlantedSimilarities(t *testing.T) {
	m, planted, err := Synthetic(SyntheticConfig{
		Rows: 20000, Cols: 100, PairsPerRange: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) != 10 {
		t.Fatalf("planted %d pairs", len(planted))
	}
	for _, p := range planted {
		got := m.Similarity(int(p.I), int(p.J))
		if math.Abs(got-p.TargetSim) > 0.08 {
			t.Errorf("pair (%d,%d): sim %v, target %v", p.I, p.J, got, p.TargetSim)
		}
	}
	// Non-planted columns should be near-independent: sim of two random
	// densities 1-5% columns is tiny.
	if s := m.Similarity(int(planted[0].I), int(planted[1].I)); s > 0.2 {
		t.Errorf("cross-pair similarity %v unexpectedly high", s)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _, _ := Synthetic(SyntheticConfig{Rows: 500, Cols: 50, Seed: 42})
	b, _, _ := Synthetic(SyntheticConfig{Rows: 500, Cols: 50, Seed: 42})
	if a.Ones() != b.Ones() {
		t.Fatal("same seed, different matrices")
	}
	c, _, _ := Synthetic(SyntheticConfig{Rows: 500, Cols: 50, Seed: 43})
	if a.Ones() == c.Ones() {
		t.Log("warning: different seeds gave same Ones count (possible but unlikely)")
	}
}

func TestBernoulliRows(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	const n, p = 100000, 0.03
	rows := bernoulliRows(rng, n, p)
	got := float64(len(rows)) / n
	if math.Abs(got-p) > 0.005 {
		t.Errorf("realised density %v, want %v", got, p)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1] >= rows[i] {
			t.Fatal("bernoulliRows not strictly increasing")
		}
	}
	if rows[len(rows)-1] >= n {
		t.Fatal("row index out of range")
	}
	if bernoulliRows(rng, 10, 0) != nil {
		t.Error("p=0 should give no rows")
	}
	if got := bernoulliRows(rng, 10, 1); len(got) != 10 {
		t.Errorf("p=1 gave %d rows", len(got))
	}
}

func TestQuickPlantPairSimilarity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		s := 0.3 + rng.Float64()*0.6
		d := 0.02 + rng.Float64()*0.05
		a, b := plantPair(rng, 30000, d, s)
		inter, union := 0, 0
		ai, bi := 0, 0
		for ai < len(a) && bi < len(b) {
			switch {
			case a[ai] < b[bi]:
				ai++
				union++
			case a[ai] > b[bi]:
				bi++
				union++
			default:
				ai++
				bi++
				inter++
				union++
			}
		}
		union += len(a) - ai + len(b) - bi
		if union == 0 {
			return true
		}
		got := float64(inter) / float64(union)
		return math.Abs(got-s) < 0.12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
