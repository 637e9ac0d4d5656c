package statstest

import (
	"reflect"
	"testing"

	"assocmine"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// scenario is one seeded synthetic workload with planted pairs (the
// generator plants them across the 45–95% similarity ranges, paper
// Section 5).
type scenario struct {
	name          string
	rows, cols    int
	minD, maxD    float64
	pairsPerRange int
	seed          uint64
}

var scenarios = []scenario{
	{name: "small-sparse", rows: 600, cols: 150, minD: 0.01, maxD: 0.04, pairsPerRange: 3, seed: 101},
	{name: "mid-denser", rows: 1000, cols: 200, minD: 0.03, maxD: 0.08, pairsPerRange: 4, seed: 202},
}

func (s scenario) dataset(t *testing.T) *assocmine.Dataset {
	t.Helper()
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
		Rows: s.rows, Cols: s.cols,
		MinDensity: s.minD, MaxDensity: s.maxD,
		PairsPerRange: s.pairsPerRange, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSchemeRecall: at similarities comfortably above the threshold
// (above the candidate cutoff (1-Delta)*s*, where the Chernoff-style
// argument of Section 3 applies) each approximate scheme recovers at
// least 95% of the true pairs, on every scenario, deterministically.
func TestSchemeRecall(t *testing.T) {
	const (
		threshold = 0.5
		strongSim = 0.7 // cutoff is (1-0.2)*0.5 = 0.4; 0.7 is "well above"
	)
	schemes := []struct {
		name string
		cfg  assocmine.Config
	}{
		{"MH", assocmine.Config{Algorithm: assocmine.MinHash, Threshold: threshold, K: 100, Seed: 7}},
		{"K-MH", assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: threshold, K: 100, Seed: 7}},
		{"M-LSH", assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: threshold, K: 100, R: 5, L: 20, Seed: 7}},
	}
	for _, sc := range scenarios {
		d := sc.dataset(t)
		for _, s := range schemes {
			out, err := Evaluate(d, s.cfg, strongSim)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, s.name, err)
			}
			if out.StrongPairs == 0 {
				t.Fatalf("%s/%s: scenario planted no pairs above %v — scenario is too weak to test recall", sc.name, s.name, strongSim)
			}
			if r := out.StrongRecall(); r < 0.95 {
				t.Errorf("%s/%s: recall %0.3f over %d strong pairs (found %d), want >= 0.95",
					sc.name, s.name, r, out.StrongPairs, out.StrongFound)
			}
			// Verification makes every returned pair exact, so the only
			// errors an approximate scheme can make are misses.
			if out.Found > out.TruthPairs {
				t.Errorf("%s/%s: returned %d pairs but ground truth has %d", sc.name, s.name, out.Found, out.TruthPairs)
			}
		}
	}
}

// TestFPRateShrinksWithK: for the MH scheme, the candidate
// false-positive rate is non-increasing as the sketch grows (Section 3:
// the agreement estimate concentrates as K grows, so fewer dissimilar
// pairs sneak past the candidate cutoff). Seeds are fixed, so the
// computed rates are exact.
func TestFPRateShrinksWithK(t *testing.T) {
	const threshold = 0.4 // low cutoff so small sketches actually admit noise
	sc := scenarios[1]
	d := sc.dataset(t)
	var prevRate float64
	var prevK int
	for i, k := range []int{8, 32, 128} {
		out, err := Evaluate(d, assocmine.Config{
			Algorithm: assocmine.MinHash, Threshold: threshold, K: k, Seed: 7,
		}, threshold)
		if err != nil {
			t.Fatal(err)
		}
		rate := out.FPRate()
		t.Logf("k=%3d: %d candidates, %d false positives (rate %.4f)", k, out.Candidates, out.FalsePositives, rate)
		if i > 0 && rate > prevRate {
			t.Errorf("FP rate grew with sketch size: k=%d rate %.4f > k=%d rate %.4f", k, rate, prevK, prevRate)
		}
		prevRate, prevK = rate, k
	}
	if prevRate != 0 && prevK == 128 && prevRate > 0.5 {
		t.Errorf("k=128 FP rate %.4f still above 0.5; estimator not concentrating", prevRate)
	}
}

// TestEvaluateDeterministic: the whole harness is a pure function of
// (scenario, Config) — two runs agree field for field.
func TestEvaluateDeterministic(t *testing.T) {
	sc := scenarios[0]
	cfg := assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 100, R: 5, L: 20, Seed: 7}
	a, err := Evaluate(sc.dataset(t), cfg, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(sc.dataset(t), cfg, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs disagree: %+v vs %+v", a, b)
	}
}

// kernelsAgree holds the packed popcount kernel to the scalar one over
// the candidates cfg's scheme hands phase 3 on d — its SkipVerify run's
// pairs — as a pure implementation swap: the same survivors, order,
// Exact bits and Touches.
func kernelsAgree(t *testing.T, label string, d *assocmine.Dataset, cfg assocmine.Config) {
	t.Helper()
	cfg.SkipVerify = true
	res, err := assocmine.SimilarPairs(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cand := make([]pairs.Scored, len(res.Pairs))
	for i, p := range res.Pairs {
		cand[i] = pairs.Scored{Pair: pairs.Make(int32(p.I), int32(p.J)), Estimate: p.Estimate}
	}
	scalar, sst, err := verify.Exact(d.Matrix().Stream(), cand, cfg.Threshold)
	if err != nil {
		t.Fatalf("%s scalar: %v", label, err)
	}
	packed, pst, err := verify.ExactPacked(d.Matrix().Stream(), cand, cfg.Threshold, verify.PackedOptions{})
	if err != nil {
		t.Fatalf("%s packed: %v", label, err)
	}
	if len(scalar) == 0 {
		t.Fatalf("%s: no candidate survives; the comparison is vacuous", label)
	}
	if !reflect.DeepEqual(scalar, packed) || sst.Touches != pst.Touches {
		t.Errorf("%s: scalar %d pairs, %d touches; packed %d pairs, %d touches", label, len(scalar), sst.Touches, len(packed), pst.Touches)
	}
}

// TestKernelOutcomesAgree: the packed popcount kernel is a pure
// implementation swap for Phase 3 — its survivors and their exact
// similarities match the scalar kernel's on every scenario and scheme.
func TestKernelOutcomesAgree(t *testing.T) {
	schemes := []struct {
		name string
		cfg  assocmine.Config
	}{
		{"MH", assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.5, K: 100, Seed: 7}},
		{"K-MH", assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: 0.5, K: 100, Seed: 7}},
		{"M-LSH", assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 100, R: 5, L: 20, Seed: 7}},
	}
	for _, sc := range scenarios {
		d := sc.dataset(t)
		for _, s := range schemes {
			kernelsAgree(t, sc.name+"/"+s.name, d, s.cfg)
		}
	}
}

// TestSerialParallelOutcomesAgree: parallel evaluation is the same
// experiment — every Outcome field matches the serial run.
func TestSerialParallelOutcomesAgree(t *testing.T) {
	sc := scenarios[0]
	d := sc.dataset(t)
	for _, algo := range []assocmine.Algorithm{assocmine.MinHash, assocmine.MinLSH} {
		cfg := assocmine.Config{Algorithm: algo, Threshold: 0.5, K: 100, R: 5, L: 20, Seed: 7}
		serial, err := Evaluate(d, cfg, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		parallel, err := Evaluate(d, cfg, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Errorf("%v: serial %+v != parallel %+v", algo, serial, parallel)
		}
	}
}
