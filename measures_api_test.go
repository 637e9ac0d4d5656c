package assocmine

import (
	"math"
	"testing"
)

func TestPairMeasures(t *testing.T) {
	d, err := NewDatasetFromColumns(10, [][]int{
		{0, 1, 2, 3}, // A = 4
		{2, 3, 4},    // B = 3, inter = 2
		{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := PairMeasures(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 10 || m.SizeI != 4 || m.SizeJ != 3 || m.Intersection != 2 || m.Union != 5 {
		t.Fatalf("counts: %+v", m)
	}
	if math.Abs(m.Jaccard-0.4) > 1e-12 {
		t.Errorf("Jaccard = %v", m.Jaccard)
	}
	if math.Abs(m.Confidence-0.5) > 1e-12 {
		t.Errorf("Confidence = %v", m.Confidence)
	}
	if math.Abs(m.Interest-2*10.0/(4*3)) > 1e-12 {
		t.Errorf("Interest = %v", m.Interest)
	}
	if m.Jaccard != d.Similarity(0, 1) {
		t.Error("Jaccard disagrees with Dataset.Similarity")
	}
	if m.Confidence != confidence(d, 0, 1) {
		t.Error("Confidence disagrees with a direct count")
	}
	// Validation paths.
	if _, err := PairMeasures(d, 0, 9); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := PairMeasures(d, 1, 1); err == nil {
		t.Error("self pair accepted")
	}
	// Empty column: all-zero measures, no error.
	e, err := PairMeasures(d, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Jaccard != 0 || e.Interest != 0 {
		t.Errorf("empty-column measures: %+v", e)
	}
}
