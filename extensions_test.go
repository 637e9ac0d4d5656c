package assocmine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

func exclusionDataset(t *testing.T) *Dataset {
	t.Helper()
	rows := make([][]int, 4000)
	for r := range rows {
		var row []int
		// Columns 0 and 1 partition the rows: perfectly exclusive.
		if r%2 == 0 {
			row = append(row, 0)
		} else {
			row = append(row, 1)
		}
		// Columns 2 and 3 are independent of everything (lift ~1 with
		// 0, 1 and each other).
		if r%3 == 0 {
			row = append(row, 2)
		}
		if r%5 == 0 {
			row = append(row, 3)
		}
		// Column 4 (4 rows) never meets column 1, but is too sparse
		// for any floor above 0.1%.
		if r%1000 == 0 {
			row = append(row, 4)
		}
		rows[r] = row
	}
	d, err := NewDatasetFromRows(5, rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMutualExclusionsExactPath(t *testing.T) {
	d := exclusionDataset(t)
	out, err := MutualExclusions(d, ExclusionConfig{MinSupport: 0.1, MaxLift: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].I != 0 || out[0].J != 1 {
		t.Fatalf("exclusions = %+v", out)
	}
	if out[0].Observed != 0 || out[0].Lift != 0 {
		t.Errorf("exclusion stats = %+v", out[0])
	}
}

func TestMutualExclusionsValidation(t *testing.T) {
	d := exclusionDataset(t)
	for _, cfg := range []ExclusionConfig{{}, {MinSupport: 2}, {MinSupport: 0.1, MaxLift: -1}} {
		if _, err := MutualExclusions(d, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMutualExclusionsSupportFloor(t *testing.T) {
	// Column 4 is sparse: exclusive with column 1 at a floor it meets,
	// absent at a floor of 5%.
	d := exclusionDataset(t)
	for _, c := range []struct {
		minSupport float64
		want       bool
	}{{0.001, true}, {0.05, false}} {
		out, err := MutualExclusions(d, ExclusionConfig{MinSupport: c.minSupport, MaxLift: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, x := range out {
			found = found || x.I == 1 && x.J == 4
		}
		if found != c.want {
			t.Errorf("MinSupport %v: (1,4) reported %v, want %v", c.minSupport, found, c.want)
		}
	}
	// A column holding exactly ⌈MinSupport·n⌉ rows qualifies, one row
	// less does not: 2 of 10 rows at MinSupport 0.15.
	d, err := NewDatasetFromColumns(10, [][]int{{0, 1, 2, 3, 4}, {8, 9}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := MutualExclusions(d, ExclusionConfig{MinSupport: 0.15, MaxLift: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].I != 0 || out[0].J != 1 {
		t.Errorf("exclusions = %+v, want (0,1) alone", out)
	}
}

// exclusionOracle is the direct §7 loop MutualExclusions replaced: every
// pair of columns at the support floor, counted by IntersectSize.
func exclusionOracle(d *Dataset, cfg ExclusionConfig) []Exclusion {
	m := d.m
	n := float64(m.NumRows())
	minCount := int(cfg.MinSupport * n)
	if float64(minCount) < cfg.MinSupport*n {
		minCount++
	}
	var eligible []int
	for c := 0; c < m.NumCols(); c++ {
		if m.ColumnSize(c) >= minCount {
			eligible = append(eligible, c)
		}
	}
	out := []Exclusion{}
	for a := 0; a < len(eligible); a++ {
		for b := a + 1; b < len(eligible); b++ {
			i, j := eligible[a], eligible[b]
			expected := float64(m.ColumnSize(i)) * float64(m.ColumnSize(j)) / n
			observed := float64(m.IntersectSize(i, j))
			if observed <= cfg.MaxLift*expected {
				out = append(out, Exclusion{I: i, J: j, Expected: expected, Observed: observed, Lift: observed / expected})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Lift != out[b].Lift {
			return out[a].Lift < out[b].Lift
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// exclusionMatrix draws a random matrix whose columns span empty,
// sparse, at-the-floor and dense: column c has density c/cols scaled by
// a per-seed factor, and every fifth column is empty.
func exclusionMatrix(seed uint64) *Dataset {
	rng := hashing.NewSplitMix64(seed)
	rows, cols := 20+rng.Intn(300), 2+rng.Intn(30)
	scale := 0.1 + rng.Float64()
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		if c%5 == 4 {
			continue
		}
		p := scale * float64(c+1) / float64(cols)
		for r := 0; r < rows; r++ {
			if rng.Float64() < p {
				b.Set(r, c)
			}
		}
	}
	return &Dataset{m: b.Build()}
}

// TestMutualExclusionsMatchesOracle holds the verify.Verify pass to the
// direct loop bit for bit — pairs, order, every float — on random
// matrices (small candidate lists count on the scalar kernel, larger
// ones packed), on an all-empty matrix, and on columns exactly at the
// support floor.
func TestMutualExclusionsMatchesOracle(t *testing.T) {
	fixtures := map[string]*Dataset{}
	for seed := uint64(1); seed <= 40; seed++ {
		fixtures[fmt.Sprintf("random-%d", seed)] = exclusionMatrix(seed)
	}
	var err error
	if fixtures["all-empty"], err = NewDatasetFromColumns(50, make([][]int, 6)); err != nil {
		t.Fatal(err)
	}
	// 100 rows: sizes 1, 5 and 20 sit exactly at the floors of
	// MinSupport 0.01, 0.05 and 0.2, each beside a size one below.
	floor := make([][]int, 0, 24)
	for _, size := range []int{1, 5, 20, 0, 4, 19} {
		for rep := 0; rep < 4; rep++ {
			col := make([]int, size)
			for r := range col {
				col[r] = r*5 + rep
			}
			floor = append(floor, col)
		}
	}
	if fixtures["at-floor"], err = NewDatasetFromColumns(100, floor); err != nil {
		t.Fatal(err)
	}
	bits := func(x Exclusion) [5]uint64 {
		return [5]uint64{uint64(x.I), uint64(x.J), math.Float64bits(x.Expected), math.Float64bits(x.Observed), math.Float64bits(x.Lift)}
	}
	found := 0
	for name, d := range fixtures {
		for _, minSupport := range []float64{0.01, 0.05, 0.2} {
			for _, maxLift := range []float64{0.1, 0.2, 0.5, 1} {
				cfg := ExclusionConfig{MinSupport: minSupport, MaxLift: maxLift}
				got, err := MutualExclusions(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := exclusionOracle(d, cfg)
				if len(got) != len(want) {
					t.Fatalf("%s %+v: %d exclusions, oracle %d", name, cfg, len(got), len(want))
				}
				for x := range want {
					if bits(got[x]) != bits(want[x]) {
						t.Fatalf("%s %+v: exclusion %d = %+v, oracle %+v", name, cfg, x, got[x], want[x])
					}
				}
				found += len(got)
			}
		}
	}
	if found == 0 {
		t.Fatal("no fixture yields an exclusion: the comparison is vacuous")
	}
}

// plantedExclusionDataset: columns 0 and 1 are dense and never
// co-occur; columns 2 and 3 are dense and independent; column 4 is too
// sparse to qualify at a 5% floor.
func plantedExclusionDataset(seed uint64, rows int) *Dataset {
	rng := hashing.NewSplitMix64(seed)
	b := matrix.NewBuilder(rows, 5)
	for r := 0; r < rows; r++ {
		if rng.Float64() < 0.3 {
			b.Set(r, 0)
		} else if rng.Float64() < 0.4 {
			b.Set(r, 1) // only when 0 is absent: mutually exclusive
		}
		if rng.Float64() < 0.3 {
			b.Set(r, 2)
		}
		if rng.Float64() < 0.3 {
			b.Set(r, 3)
		}
		if rng.Float64() < 0.001 {
			b.Set(r, 4)
		}
	}
	return &Dataset{m: b.Build()}
}

func TestMutualExclusionsFindsPlantedPair(t *testing.T) {
	d := plantedExclusionDataset(1, 5000)
	out, err := MutualExclusions(d, ExclusionConfig{MinSupport: 0.05, MaxLift: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The independent pair (2,3) has lift ~1 and must not be flagged
	// at MaxLift 0.1; only the planted pair is.
	if len(out) != 1 {
		t.Fatalf("exclusions = %+v", out)
	}
	x := out[0]
	if x.I != 0 || x.J != 1 {
		t.Errorf("exclusion pair (%d,%d), want (0,1)", x.I, x.J)
	}
	if x.Observed != 0 || x.Lift != 0 {
		t.Errorf("observed = %v, lift = %v, want 0 (never co-occur)", x.Observed, x.Lift)
	}
}

// TestMutualExclusionsValidatesWithoutPairs: a bad config is refused
// even on a dataset with no pair to count.
func TestMutualExclusionsValidatesWithoutPairs(t *testing.T) {
	d, err := NewDatasetFromColumns(1, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ExclusionConfig{{MinSupport: 0}, {MinSupport: 2}, {MinSupport: 0.1, MaxLift: -1}} {
		if _, err := MutualExclusions(d, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if out, err := MutualExclusions(d, ExclusionConfig{MinSupport: 0.5}); err != nil || len(out) != 0 {
		t.Errorf("one column: exclusions = %+v, %v; want none", out, err)
	}
}

func TestAnyOfIsTheNWayOr(t *testing.T) {
	// Column 0 is exactly the union of columns 1 and 2.
	d, err := NewDatasetFromColumns(20, [][]int{
		{0, 1, 2, 10, 11},
		{0, 1, 2},
		{10, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 300, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewExprEvaluator(sk)
	s, err := ev.Similarity(Col(0), AnyOf(Col(1), Col(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("OR similarity = %v, want 1", s)
	}
	if _, err := ev.Similarity(Col(9), AnyOf(Col(1))); err == nil {
		t.Error("out-of-range antecedent accepted")
	}
	if _, err := ev.Similarity(Col(0), AnyOf(Col(9))); err == nil {
		t.Error("out-of-range consequent accepted")
	}
}

func TestAnyOfUnionOfThree(t *testing.T) {
	// Column 0 is exactly the union of columns 1, 2 and 3; pairwise it
	// is far less similar to any of them.
	d, err := NewDatasetFromColumns(30, [][]int{
		{0, 1, 2, 10, 11, 20, 21},
		{0, 1, 2},
		{10, 11},
		{20, 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 400, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewExprEvaluator(sk)
	s, err := ev.Similarity(Col(0), AnyOf(Col(1), Col(2), Col(3)))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("3-way OR similarity = %v, want 1 (exact union)", s)
	}
	if s, err := ev.Similarity(Col(0), Col(1)); err != nil || s > 0.7 {
		t.Errorf("pairwise similarity = %v (%v): fixture broken", s, err)
	}
	// k exceeds every union here, so the two-way OR is exact:
	// |{0,1,2,10,11}| / |{0,1,2,10,11,20,21}| = 5/7.
	two, err := ev.Similarity(Col(0), AnyOf(Col(1), Col(2)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two-5.0/7) > 1e-12 {
		t.Errorf("2-way OR similarity = %v, want 5/7", two)
	}
}

func TestClusterRecoversGroups(t *testing.T) {
	// Three near-identical column groups.
	cols := make([][]int, 9)
	for g := 0; g < 3; g++ {
		base := []int{g * 10, g*10 + 1, g*10 + 2}
		for member := 0; member < 3; member++ {
			cols[g*3+member] = base
		}
	}
	d, err := NewDatasetFromColumns(40, cols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimilarPairs(d, Config{Algorithm: BruteForce, Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	clusters := Cluster(d.NumCols(), res.Pairs, 0.9)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v", clusters)
	}
	for _, c := range clusters {
		if len(c) != 3 {
			t.Errorf("cluster %v has %d members, want 3", c, len(c))
		}
		group := c[0] / 3
		for _, m := range c {
			if m/3 != group {
				t.Errorf("cluster %v mixes groups", c)
			}
		}
	}
	// minDensity 0 path (plain components).
	if got := Cluster(d.NumCols(), res.Pairs, 0); len(got) != 3 {
		t.Errorf("component clustering = %v", got)
	}
}
