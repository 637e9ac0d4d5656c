package minhash

import (
	"math"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

func paperExample() *matrix.Matrix {
	return matrix.MustNew(4, [][]int32{
		{0, 1},
		{0, 1, 2},
		{2, 3},
	})
}

func TestComputeValidatesK(t *testing.T) {
	m := paperExample()
	for _, k := range []int{0, -1} {
		if _, err := Compute(m.Stream(), k, 1); err == nil {
			t.Errorf("Compute accepted k=%d", k)
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	m := paperExample()
	a, err := Compute(m.Stream(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(m.Stream(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatalf("signatures differ at %d", i)
		}
	}
}

func TestComputeSeedMatters(t *testing.T) {
	m := paperExample()
	a, _ := Compute(m.Stream(), 8, 1)
	b, _ := Compute(m.Stream(), 8, 2)
	same := 0
	for i := range a.Vals {
		if a.Vals[i] == b.Vals[i] {
			same++
		}
	}
	if same == len(a.Vals) {
		t.Fatal("different seeds produced identical signatures")
	}
}

// TestMinHashIsColumnMinimum verifies the defining property directly:
// the signature equals the minimum row-hash over the column's rows.
func TestMinHashIsColumnMinimum(t *testing.T) {
	m := paperExample()
	const k, seed = 5, 77
	sig, err := Compute(m.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	hs := hashing.NewPermHashes(seed, k)
	for c := 0; c < m.NumCols(); c++ {
		for l := 0; l < k; l++ {
			want := Empty
			for _, r := range m.Column(c) {
				if h := hs[l].Row(int(r)); h < want {
					want = h
				}
			}
			if got := sig.Value(l, c); got != want {
				t.Errorf("sig[%d][%d] = %x, want %x", l, c, got, want)
			}
		}
	}
}

func TestEmptyColumnSentinel(t *testing.T) {
	m := matrix.MustNew(3, [][]int32{{}, {0, 1, 2}, {}})
	sig, err := Compute(m.Stream(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		if sig.Value(l, 0) != Empty {
			t.Errorf("empty column has non-sentinel value at row %d", l)
		}
	}
	// Two empty columns must estimate similarity 0, not 1.
	if got := sig.Estimate(0, 2); got != 0 {
		t.Errorf("Estimate(empty, empty) = %v, want 0", got)
	}
	if got := sig.Estimate(0, 1); got != 0 {
		t.Errorf("Estimate(empty, full) = %v, want 0", got)
	}
}

// TestProposition1 checks Prob[h(ci)=h(cj)] = S(ci,cj) statistically:
// with many independent hash functions the agreement fraction must
// approach the true Jaccard similarity.
func TestProposition1(t *testing.T) {
	m := paperExample()
	const k = 20000
	sig, err := Compute(m.Stream(), k, 123)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ i, j int }{{0, 1}, {0, 2}, {1, 2}}
	for _, c := range cases {
		want := m.Similarity(c.i, c.j)
		got := sig.Estimate(c.i, c.j)
		// 4-sigma tolerance for a binomial proportion.
		tol := 4 * math.Sqrt(want*(1-want)/k)
		if tol < 0.01 {
			tol = 0.01
		}
		if math.Abs(got-want) > tol {
			t.Errorf("Estimate(%d,%d) = %v, want %v ± %v", c.i, c.j, got, want, tol)
		}
	}
}

func TestEstimateIdenticalColumns(t *testing.T) {
	m := matrix.MustNew(6, [][]int32{
		{0, 2, 4},
		{0, 2, 4},
	})
	sig, _ := Compute(m.Stream(), 16, 5)
	if got := sig.Estimate(0, 1); got != 1 {
		t.Errorf("identical columns estimate = %v, want 1", got)
	}
}

func TestEstimateDisjointColumns(t *testing.T) {
	m := matrix.MustNew(6, [][]int32{
		{0, 1, 2},
		{3, 4, 5},
	})
	sig, _ := Compute(m.Stream(), 64, 5)
	if got := sig.Estimate(0, 1); got != 0 {
		t.Errorf("disjoint columns estimate = %v, want 0", got)
	}
}

// TestOrColumnMatchesInducedColumn: the OR signature must equal the
// signature of the materialised induced column c_i ∨ c_j.
func TestOrColumnMatchesInducedColumn(t *testing.T) {
	rng := hashing.NewSplitMix64(99)
	b := matrix.NewBuilder(50, 3)
	for c := 0; c < 2; c++ {
		for r := 0; r < 50; r++ {
			if rng.Float64() < 0.15 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	m2, orIdx := m.WithOrColumn(0, 1)
	const k, seed = 12, 314
	sig, err := Compute(m2.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	or := sig.OrColumn(0, 1, nil)
	for l := 0; l < k; l++ {
		if or[l] != sig.Value(l, orIdx) {
			t.Errorf("OR signature row %d = %x, want %x", l, or[l], sig.Value(l, orIdx))
		}
	}
}

// lessOrEqualFraction is the fraction of hash indices with
// h_l(c_i) <= h_l(c_j), Section 6's unbiased estimator of
// |C_i| / |C_i ∪ C_j| — what internal/rules' sweep counts for every
// j at once. An empty c_i never counts as <=.
func lessOrEqualFraction(s *Signatures, i, j int) float64 {
	n := 0
	for l := 0; l < s.K; l++ {
		if vi := s.Vals[l*s.M+i]; vi != Empty && vi <= s.Vals[l*s.M+j] {
			n++
		}
	}
	return float64(n) / float64(s.K)
}

// TestLessOrEqualFraction checks the Section 6 estimator of
// |C_i| / |C_i ∪ C_j| statistically: the property of the signatures the
// rule miner rests on.
func TestLessOrEqualFraction(t *testing.T) {
	m := paperExample()
	const k = 20000
	sig, _ := Compute(m.Stream(), k, 2024)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			want := float64(m.ColumnSize(i)) / float64(m.UnionSize(i, j))
			got := lessOrEqualFraction(sig, i, j)
			if math.Abs(got-want) > 0.02 {
				t.Errorf("LessOrEqualFraction(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSampleSize(t *testing.T) {
	k, err := SampleSize(0.1, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(2 / (0.01 * 0.5) * math.Log(100)))
	if k != want {
		t.Errorf("SampleSize = %d, want %d", k, want)
	}
	// Monotonicity: smaller delta needs more samples.
	k2, _ := SampleSize(0.05, 0.01, 0.5)
	if k2 <= k {
		t.Errorf("smaller delta gave k=%d <= %d", k2, k)
	}
	for _, bad := range [][3]float64{
		{0, 0.1, 0.5}, {1, 0.1, 0.5}, {0.1, 0, 0.5}, {0.1, 1, 0.5}, {0.1, 0.1, 0}, {0.1, 0.1, 1.5},
	} {
		if _, err := SampleSize(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("SampleSize accepted %v", bad)
		}
	}
}

// TestTheorem1Concentration: over many random pairs, pairs with true
// similarity >= s* rarely fall below (1-δ)s* agreement when k meets the
// Theorem 1 bound.
func TestTheorem1Concentration(t *testing.T) {
	const delta, eps, cutoff = 0.5, 0.05, 0.3
	k, err := SampleSize(delta, eps, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(55)
	b := matrix.NewBuilder(400, 40)
	// Pairs of columns sharing most rows: similarity well above cutoff.
	for c := 0; c < 40; c += 2 {
		for r := 0; r < 400; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
				b.Set(r, c+1)
			} else if rng.Float64() < 0.01 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	sig, err := Compute(m.Stream(), k, 77)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	pairsChecked := 0
	for c := 0; c < 40; c += 2 {
		s := m.Similarity(c, c+1)
		if s < cutoff {
			continue
		}
		pairsChecked++
		if sig.Estimate(c, c+1) < (1-delta)*s {
			misses++
		}
	}
	if pairsChecked == 0 {
		t.Fatal("fixture produced no high-similarity pairs")
	}
	// Expected miss rate <= eps; allow generous slack for 20 trials.
	if float64(misses) > math.Max(2, 3*eps*float64(pairsChecked)) {
		t.Errorf("%d/%d pairs fell below (1-δ)s", misses, pairsChecked)
	}
}

func TestQuickAgreementSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		b := matrix.NewBuilder(30, 6)
		for c := 0; c < 6; c++ {
			for r := 0; r < 30; r++ {
				if rng.Float64() < 0.2 {
					b.Set(r, c)
				}
			}
		}
		sig, err := Compute(b.Build().Stream(), 10, seed^0xabcdef)
		if err != nil {
			return false
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if sig.agreement(i, j) != sig.agreement(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstimateBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		b := matrix.NewBuilder(20, 5)
		for c := 0; c < 5; c++ {
			for r := 0; r < 20; r++ {
				if rng.Float64() < 0.3 {
					b.Set(r, c)
				}
			}
		}
		sig, err := Compute(b.Build().Stream(), 7, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				e := sig.Estimate(i, j)
				if e < 0 || e > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
