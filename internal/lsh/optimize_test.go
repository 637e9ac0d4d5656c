package lsh

import (
	"math"
	"testing"
)

// testDistribution mimics the paper's Fig. 3 shape: a huge mass of
// near-zero similarities and a thin tail of interesting pairs.
func testDistribution() Distribution {
	return Distribution{
		S:     []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.95},
		Count: []float64{1e6, 2e5, 5e4, 1e4, 500, 100, 40, 20},
	}
}

func TestDistributionValidate(t *testing.T) {
	d := testDistribution()
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Distribution{
		{S: []float64{0.5}, Count: nil},
		{S: []float64{1.5}, Count: []float64{1}},
		{S: []float64{-0.1}, Count: []float64{1}},
		{S: []float64{0.5}, Count: []float64{-1}},
		{S: []float64{math.NaN()}, Count: []float64{1}},
	}
	for i, d := range bad {
		if err := d.validate(); err == nil {
			t.Errorf("bad distribution %d accepted", i)
		}
	}
}

func TestExpectedErrorsExtremes(t *testing.T) {
	d := testDistribution()
	// r=1, l huge: nearly everything collides -> FN ~ 0, FP huge.
	fn, fp := d.expectedErrors(0.5, 1, 500)
	if fn > 1 {
		t.Errorf("FN = %v with l=500, want ~0", fn)
	}
	if fp < 1e5 {
		t.Errorf("FP = %v with r=1 l=500, want huge", fp)
	}
	// r huge, l=1: nothing collides -> FP ~ 0, FN ~ tail mass.
	fn, fp = d.expectedErrors(0.5, 60, 1)
	if fp > 1 {
		t.Errorf("FP = %v with r=60, want ~0", fp)
	}
	if fn < 100 {
		t.Errorf("FN = %v with r=60 l=1, want ~tail mass", fn)
	}
}

func TestOptimizeFindsFeasiblePoint(t *testing.T) {
	d := testDistribution()
	p, err := Optimize(d, 0.5, 10, 5000, 50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.FN > 10 || p.FP > 5000 {
		t.Errorf("optimizer returned infeasible params %+v", p)
	}
	// The paper: optimal r is usually between 5 and 20.
	if p.R < 2 || p.R > 30 {
		t.Errorf("optimal r = %d looks wrong for this distribution", p.R)
	}
	// Verify reported errors match a recomputation.
	fn, fp := d.expectedErrors(0.5, p.R, p.L)
	if math.Abs(fn-p.FN) > 1e-9 || math.Abs(fp-p.FP) > 1e-9 {
		t.Errorf("reported errors (%v,%v) != recomputed (%v,%v)", p.FN, p.FP, fn, fp)
	}
}

func TestOptimizeIsMinimal(t *testing.T) {
	d := testDistribution()
	const s0, maxFN, maxFP = 0.5, 10.0, 5000.0
	best, err := Optimize(d, s0, maxFN, maxFP, 30, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check that no cheaper feasible point exists.
	for r := 1; r <= 30; r++ {
		for l := 1; l <= 200; l++ {
			if r*l >= best.cost() {
				continue
			}
			fn, fp := d.expectedErrors(s0, r, l)
			if fn <= maxFN && fp <= maxFP {
				t.Fatalf("optimizer missed cheaper feasible point r=%d l=%d (cost %d < %d)",
					r, l, r*l, best.cost())
			}
		}
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	d := testDistribution()
	// Impossible: zero false negatives and zero false positives.
	if _, err := Optimize(d, 0.5, 0, 0, 20, 50); err == nil {
		t.Error("optimizer claimed to achieve FN=FP=0")
	}
}

func TestOptimizeValidation(t *testing.T) {
	d := testDistribution()
	cases := []struct {
		s0, fn, fp float64
		maxR, maxL int
	}{
		{0, 1, 1, 10, 10},
		{1.5, 1, 1, 10, 10},
		{0.5, -1, 1, 10, 10},
		{0.5, 1, -1, 10, 10},
		{0.5, 1, 1, 0, 10},
		{0.5, 1, 1, 10, 0},
	}
	for i, c := range cases {
		if _, err := Optimize(d, c.s0, c.fn, c.fp, c.maxR, c.maxL); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	badDist := Distribution{S: []float64{2}, Count: []float64{1}}
	if _, err := Optimize(badDist, 0.5, 1, 1, 10, 10); err == nil {
		t.Error("invalid distribution accepted")
	}
}

func TestOptimizeTighterFNBudgetCostsMore(t *testing.T) {
	d := testDistribution()
	loose, err := Optimize(d, 0.5, 50, 1e6, 40, 500)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Optimize(d, 0.5, 1, 1e6, 40, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tight.cost() < loose.cost() {
		t.Errorf("tighter FN budget got cheaper params: %d < %d", tight.cost(), loose.cost())
	}
}
