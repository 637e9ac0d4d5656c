package assocmine

import (
	"testing"
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
		rows[r] = row
	}
	d, err := NewDatasetFromRows(4, rows)
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

func TestMutualExclusionsSignaturePath(t *testing.T) {
	d := exclusionDataset(t)
	out, err := MutualExclusions(d, ExclusionConfig{
		MinSupport: 0.1, MaxLift: 0.1, UseSignatures: true, K: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range out {
		if x.I == 0 && x.J == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("signature path missed the exclusive pair: %+v", out)
	}
}

func TestMutualExclusionsValidation(t *testing.T) {
	d := exclusionDataset(t)
	if _, err := MutualExclusions(d, ExclusionConfig{}); err == nil {
		t.Error("missing MinSupport accepted")
	}
}

func TestOrSimilarityMulti(t *testing.T) {
	// Column 0 = exact union of 1 and 2.
	d, err := NewDatasetFromColumns(20, [][]int{
		{0, 1, 2, 10, 11},
		{0, 1, 2},
		{10, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OrSimilarityMulti(d, 0, []int{1, 2}, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("OR similarity = %v, want 1", s)
	}
	if _, err := OrSimilarityMulti(d, 9, []int{1}, 10, 1); err == nil {
		t.Error("out-of-range antecedent accepted")
	}
	if _, err := OrSimilarityMulti(d, 0, []int{9}, 10, 1); err == nil {
		t.Error("out-of-range consequent accepted")
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
