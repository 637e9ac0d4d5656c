package statstest

import (
	"testing"

	"assocmine"
)

// bpsConfig is the baseline BPS evaluation config: default sample
// budget (λ = 32), default Delta, fixed seed.
func bpsConfig(threshold float64) assocmine.Config {
	return assocmine.Config{Algorithm: assocmine.BPS, Threshold: threshold, Seed: 7}
}

// TestBPSRecall: at similarities comfortably above the threshold the
// sampler recovers at least 90% of the true pairs on every scenario at
// the default budget. The guarantee has two regimes: low-support pairs
// are counted exactly (p = 1, no misses possible), and subsampled pairs
// concentrate around an expected count >= λ, so the (1-δ) filter bar
// sits several standard deviations below the mean of a strong pair.
func TestBPSRecall(t *testing.T) {
	const (
		threshold = 0.5
		strongSim = 0.7
	)
	for _, sc := range scenarios {
		d := sc.dataset(t)
		out, err := Evaluate(d, bpsConfig(threshold), strongSim)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if out.StrongPairs == 0 {
			t.Fatalf("%s: scenario planted no pairs above %v — too weak to test recall", sc.name, strongSim)
		}
		if r := out.StrongRecall(); r < 0.9 {
			t.Errorf("%s: recall %0.3f over %d strong pairs (found %d), want >= 0.9",
				sc.name, r, out.StrongPairs, out.StrongFound)
		}
		// Verification makes every returned pair exact, so the sampler
		// can only miss, never invent.
		if out.Found > out.TruthPairs {
			t.Errorf("%s: returned %d pairs but ground truth has %d", sc.name, out.Found, out.TruthPairs)
		}
	}
}

// TestBPSFPRateShrinksWithBudget: growing the sample budget λ
// concentrates the accepted counts around their means, so fewer
// dissimilar pairs sneak past the (1-δ)·λ candidate bar — the
// false-positive rate is non-increasing in the budget, the sampling
// analogue of TestFPRateShrinksWithK. The denser scenario keeps the
// support products high enough that small budgets actually subsample.
func TestBPSFPRateShrinksWithBudget(t *testing.T) {
	const threshold = 0.4
	sc := scenarios[1]
	d := sc.dataset(t)
	var prevRate float64
	var prevB int
	for i, b := range []int{1, 4, 16, 64} {
		cfg := bpsConfig(threshold)
		cfg.SampleBudget = b
		out, err := Evaluate(d, cfg, threshold)
		if err != nil {
			t.Fatal(err)
		}
		rate := out.FPRate()
		t.Logf("λ=%3d: %d candidates, %d false positives (rate %.4f)", b, out.Candidates, out.FalsePositives, rate)
		if i > 0 && rate > prevRate {
			t.Errorf("FP rate grew with budget: λ=%d rate %.4f > λ=%d rate %.4f", b, rate, prevB, prevRate)
		}
		prevRate, prevB = rate, b
	}
	if prevRate > 0.5 {
		t.Errorf("λ=%d FP rate %.4f still above 0.5; sampler not concentrating", prevB, prevRate)
	}
}

// TestBPSRecallGrowsWithBudget: recall over all truth pairs is
// non-decreasing in the sample budget and reaches 1.0 once the budget
// pushes every acceptance probability to 1 (exact counting).
func TestBPSRecallGrowsWithBudget(t *testing.T) {
	const threshold = 0.5
	sc := scenarios[1]
	d := sc.dataset(t)
	var prevRecall float64
	var prevB int
	budgets := []int{1, 8, 64, 512}
	for i, b := range budgets {
		cfg := bpsConfig(threshold)
		cfg.SampleBudget = b
		out, err := Evaluate(d, cfg, threshold)
		if err != nil {
			t.Fatal(err)
		}
		r := out.Recall()
		t.Logf("λ=%3d: recall %.4f (%d/%d)", b, r, out.Found, out.TruthPairs)
		if i > 0 && r < prevRecall {
			t.Errorf("recall fell with budget: λ=%d recall %.4f < λ=%d recall %.4f", b, r, prevB, prevRecall)
		}
		prevRecall, prevB = r, b
	}
	if prevRecall < 1 {
		t.Errorf("λ=%d recall %.4f, want 1.0 (exact-counting regime)", prevB, prevRecall)
	}
}

// TestBPSSerialParallelOutcomesAgree: same seed, any worker count —
// identical output, field for field (the seed-splitting determinism
// argument, measured end to end).
func TestBPSSerialParallelOutcomesAgree(t *testing.T) {
	for _, sc := range scenarios {
		d := sc.dataset(t)
		cfg := bpsConfig(0.5)
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
			t.Errorf("%s: serial %+v != parallel %+v", sc.name, serial, parallel)
		}
	}
}

// TestBPSKernelOutcomesAgree: the verification kernels are a pure
// implementation swap under the sampler too.
func TestBPSKernelOutcomesAgree(t *testing.T) {
	sc := scenarios[0]
	kernelsAgree(t, sc.name, sc.dataset(t), bpsConfig(0.5))
}
