package rules

import (
	"math"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
)

// exclusionFixture: columns 0 and 1 are dense and never co-occur;
// columns 2 and 3 are dense and independent; column 4 is too sparse to
// qualify.
func exclusionFixture(rng *hashing.SplitMix64, rows int) *matrix.Matrix {
	b := matrix.NewBuilder(rows, 5)
	for r := 0; r < rows; r++ {
		if rng.Float64() < 0.3 {
			b.Set(r, 0)
		} else if rng.Float64() < 0.4 {
			b.Set(r, 1) // only when 0 absent: mutually exclusive
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
	return b.Build()
}

func TestExclusionOptionsValidate(t *testing.T) {
	m := matrix.MustNew(1, [][]int32{{0}})
	for _, o := range []ExclusionOptions{{MinSupport: 0}, {MinSupport: 2}, {MinSupport: 0.1, MaxLift: -1}} {
		if _, err := MutualExclusions(m, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestMutualExclusionsExact(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := exclusionFixture(rng, 5000)
	out, err := MutualExclusions(m, ExclusionOptions{MinSupport: 0.05, MaxLift: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("exclusions = %+v", out)
	}
	x := out[0]
	if x.I != 0 || x.J != 1 {
		t.Errorf("exclusion pair (%d,%d), want (0,1)", x.I, x.J)
	}
	if x.Observed != 0 {
		t.Errorf("observed = %v, want 0 (never co-occur)", x.Observed)
	}
	if x.Lift != 0 {
		t.Errorf("lift = %v", x.Lift)
	}
	// Independent pair (2,3) must not be flagged at MaxLift 0.1 since
	// its lift is ~1.
	for _, e := range out {
		if e.I == 2 && e.J == 3 {
			t.Error("independent pair flagged as exclusive")
		}
	}
}

func TestMutualExclusionsSupportFloor(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m := exclusionFixture(rng, 5000)
	// Column 4 is sparse; with a floor of 5% it can never appear even
	// though it is trivially "exclusive" with nearly everything.
	out, err := MutualExclusions(m, ExclusionOptions{MinSupport: 0.05, MaxLift: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range out {
		if x.I == 4 || x.J == 4 {
			t.Error("sparse column passed the support floor")
		}
	}
}

func TestMutualExclusionsFromSignatures(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	m := exclusionFixture(rng, 5000)
	sig, err := minhash.Compute(m.Stream(), 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, m.NumCols())
	for c := range sizes {
		sizes[c] = m.ColumnSize(c)
	}
	out, err := MutualExclusionsFromSignatures(sig, sizes, m.NumRows(), ExclusionOptions{
		MinSupport: 0.05, MaxLift: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range out {
		if x.I == 0 && x.J == 1 {
			found = true
		}
		if x.I == 2 && x.J == 3 {
			t.Error("independent pair flagged by signature-based exclusion")
		}
	}
	if !found {
		t.Errorf("signature-based exclusion missed the planted pair: %+v", out)
	}
	// Validation.
	if _, err := MutualExclusionsFromSignatures(sig, sizes[:2], m.NumRows(), ExclusionOptions{MinSupport: 0.05}); err == nil {
		t.Error("wrong colSizes length accepted")
	}
	if _, err := MutualExclusionsFromSignatures(sig, sizes, 0, ExclusionOptions{MinSupport: 0.05}); err == nil {
		t.Error("numRows 0 accepted")
	}
}

func TestOrSimilarityEstimateMulti(t *testing.T) {
	// Column 0 = union of 1, 2, 3 exactly.
	m := matrix.MustNew(30, [][]int32{
		{0, 1, 2, 10, 11, 20, 21},
		{0, 1, 2},
		{10, 11},
		{20, 21},
	})
	sig, err := minhash.Compute(m.Stream(), 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := OrSimilarityEstimateMulti(sig, 0, []int{1, 2, 3})
	if got != 1 {
		t.Errorf("3-way OR similarity = %v, want 1 (exact union)", got)
	}
	// Pairwise similarity is well below 1.
	if s := sig.Estimate(0, 1); s > 0.7 {
		t.Errorf("fixture broken: pairwise sim %v too high", s)
	}
	// Two-way consistency with orSimilarityEstimate.
	two := orSimilarityEstimate(sig, 0, 1, 2)
	multi := OrSimilarityEstimateMulti(sig, 0, []int{1, 2})
	if math.Abs(two-multi) > 1e-12 {
		t.Errorf("2-way multi %v != orSimilarityEstimate %v", multi, two)
	}
	if OrSimilarityEstimateMulti(sig, 0, nil) != 0 {
		t.Error("empty disjunction should score 0")
	}
}
