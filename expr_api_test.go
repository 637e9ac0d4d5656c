package assocmine

import (
	"math"
	"testing"
)

func TestExprEvaluator(t *testing.T) {
	// Column 0 is exactly the union of 1 and 2; 3 is noise.
	rows := make([][]int, 10000)
	for r := range rows {
		switch {
		case r%20 == 0:
			rows[r] = []int{0, 1}
		case r%20 == 1:
			rows[r] = []int{0, 2}
		case r%7 == 0:
			rows[r] = []int{3}
		}
	}
	d, err := NewDatasetFromRows(4, rows)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ComputeSketches(d, 512, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewExprEvaluator(sk)
	// Cardinality of a single column is exact.
	c0, err := ev.Cardinality(Col(0))
	if err != nil {
		t.Fatal(err)
	}
	if c0 != float64(d.ColumnSize(0)) {
		t.Errorf("Cardinality(c0) = %v, want %d", c0, d.ColumnSize(0))
	}
	// S(c0, c1 ∨ c2) should be ~1.
	s, err := ev.Similarity(Col(0), AnyOf(Col(1), Col(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Errorf("Similarity(c0, c1∨c2) = %v, want ~1", s)
	}
	// conf(c1 => c0) = 1 exactly.
	conf, err := ev.Confidence(Col(1), Col(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(conf-1) > 0.15 {
		t.Errorf("Confidence(c1 => c0) = %v, want ~1", conf)
	}
	// |c1 ∧ c3| = 0.
	and, err := ev.Cardinality(AllOf(Col(1), Col(3)))
	if err != nil {
		t.Fatal(err)
	}
	if and > 0.05*float64(d.ColumnSize(1)) {
		t.Errorf("Cardinality(c1∧c3) = %v, want ~0", and)
	}
	// Structural validation surfaces.
	if _, err := ev.Cardinality(AllOf(AllOf(Col(0), Col(1)), Col(2))); err == nil {
		t.Error("nested AllOf accepted")
	}
	if _, err := ev.Similarity(AllOf(Col(0), Col(1)), Col(2)); err == nil {
		t.Error("similarity of AllOf accepted")
	}
	if _, err := ev.Cardinality(Col(99)); err == nil {
		t.Error("out-of-range column accepted")
	}
}
