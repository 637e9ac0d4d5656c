package kminhash

import (
	"math"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

func TestEstimateCardinalitySmallSetExact(t *testing.T) {
	m := testutil.Must(matrix.New(100, [][]int32{{3, 17, 40}}))
	s, err := compute(m.Stream(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateCardinality(s.Signature(0), s.K); got != 3 {
		t.Errorf("small-set cardinality = %v, want exact 3", got)
	}
	if got := EstimateCardinality(nil, 10); got != 0 {
		t.Errorf("empty sketch cardinality = %v", got)
	}
}

// TestEstimateCardinalityStatistical: averaged over many seeds, the
// bottom-k estimator must land near the true size.
func TestEstimateCardinalityStatistical(t *testing.T) {
	const rows, trueSize, k, trials = 50000, 5000, 64, 50
	col := make([]int32, trueSize)
	for i := range col {
		col[i] = int32(i * (rows / trueSize))
	}
	m := testutil.Must(matrix.New(rows, [][]int32{col}))
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		s, err := compute(m.Stream(), k, uint64(100+trial))
		if err != nil {
			t.Fatal(err)
		}
		sum += EstimateCardinality(s.Signature(0), k)
	}
	mean := sum / trials
	// Relative standard error of the bottom-k estimator is ~1/sqrt(k-2);
	// averaging 50 trials leaves ~1.8% — allow 6%.
	if math.Abs(mean-trueSize)/trueSize > 0.06 {
		t.Errorf("mean cardinality estimate %v, want ~%d", mean, trueSize)
	}
}

func TestEstimateUnionAndIntersection(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	b := matrix.NewBuilder(20000, 2)
	for r := 0; r < 20000; r++ {
		u := rng.Float64()
		switch {
		case u < 0.05: // both
			b.Set(r, 0)
			b.Set(r, 1)
		case u < 0.10:
			b.Set(r, 0)
		case u < 0.15:
			b.Set(r, 1)
		}
	}
	m := b.Build()
	trueUnion := float64(m.ColumnSize(0) + m.ColumnSize(1) - m.IntersectSize(0, 1))
	trueInter := float64(m.IntersectSize(0, 1))
	const k, trials = 128, 30
	var sumU, sumI float64
	for trial := 0; trial < trials; trial++ {
		s, err := compute(m.Stream(), k, uint64(500+trial))
		if err != nil {
			t.Fatal(err)
		}
		sumU += s.estimateUnionSize(0, 1)
		sumI += s.estimateIntersectionSize(0, 1)
	}
	if math.Abs(sumU/trials-trueUnion)/trueUnion > 0.08 {
		t.Errorf("union estimate %v, want ~%v", sumU/trials, trueUnion)
	}
	if math.Abs(sumI/trials-trueInter)/trueInter > 0.25 {
		t.Errorf("intersection estimate %v, want ~%v", sumI/trials, trueInter)
	}
}

func TestEstimateIntersectionClamped(t *testing.T) {
	// Disjoint columns: inclusion-exclusion can go negative; must clamp
	// to 0.
	m := testutil.Must(matrix.New(1000, [][]int32{
		{0, 1, 2, 3, 4},
		{500, 501, 502},
	}))
	s, err := compute(m.Stream(), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.estimateIntersectionSize(0, 1); got != 0 {
		t.Errorf("disjoint intersection estimate = %v (sketches are exact here)", got)
	}
}
