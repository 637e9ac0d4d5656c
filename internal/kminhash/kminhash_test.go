package kminhash

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// withOrColumn returns a copy of m with the induced column c_i ∨ c_j
// appended, and that column's index.
func withOrColumn(m *matrix.Matrix, i, j int) (*matrix.Matrix, int) {
	cols := make([][]int32, m.NumCols(), m.NumCols()+1)
	for c := range cols {
		cols[c] = m.Column(c)
	}
	or := slices.Concat(m.Column(i), m.Column(j))
	slices.Sort(or)
	cols = append(cols, slices.Compact(or))
	return testutil.Must(matrix.New(m.NumRows(), cols)), len(cols) - 1
}

func randomMatrix(rng *hashing.SplitMix64, rows, cols int, density float64) *matrix.Matrix {
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				b.Set(r, c)
			}
		}
	}
	return b.Build()
}

func TestComputeValidatesK(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}}))
	for _, k := range []int{0, -3} {
		if _, err := compute(m.Stream(), k, 1); err == nil {
			t.Errorf("Compute accepted k=%d", k)
		}
	}
}

// TestBottomKMatchesSort: the heap-maintained signature must equal the
// k smallest row-hash values computed by brute force.
func TestBottomKMatchesSort(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 300, 10, 0.2)
	const k, seed = 8, 42
	s, err := compute(m.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := hashing.NewPermHash(seed)
	for c := 0; c < m.NumCols(); c++ {
		var all []uint64
		for _, r := range m.Column(c) {
			all = append(all, h.Row(int(r)))
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := s.Signature(c)
		if len(got) != len(want) {
			t.Fatalf("column %d: signature length %d, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %d: sig[%d] = %x, want %x", c, i, got[i], want[i])
			}
		}
	}
}

func TestColSizes(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{{0, 1}, {0, 1, 2}, {2, 3}}))
	s, err := compute(m.Stream(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 2}
	for c, w := range want {
		if s.ColSizes[c] != w {
			t.Errorf("ColSizes[%d] = %d, want %d", c, s.ColSizes[c], w)
		}
	}
}

func TestSparseColumnKeepsAllValues(t *testing.T) {
	m := testutil.Must(matrix.New(10, [][]int32{{3, 7}}))
	s, _ := compute(m.Stream(), 5, 9)
	if len(s.Signature(0)) != 2 {
		t.Errorf("signature of 2-row column has length %d, want 2", len(s.Signature(0)))
	}
}

func TestEmptyColumn(t *testing.T) {
	m := testutil.Must(matrix.New(3, [][]int32{{}, {0, 1, 2}}))
	s, _ := compute(m.Stream(), 2, 3)
	if len(s.Signature(0)) != 0 {
		t.Errorf("empty column signature length %d", len(s.Signature(0)))
	}
	if got := s.UnbiasedEstimate(0, 0); got != 0 {
		t.Errorf("estimate between empty columns = %v", got)
	}
	if got := s.biasedEstimate(0, 1); got != 0 {
		t.Errorf("biased estimate with empty column = %v", got)
	}
}

// TestUnionSignatureIsBottomKOfUnion: SIG_{i∪j} must equal the bottom-k
// sketch of the materialised OR column.
func TestUnionSignatureIsBottomKOfUnion(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 200, 4, 0.15)
	m2, orIdx := withOrColumn(m, 0, 1)
	const k, seed = 6, 99
	s, err := compute(m2.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := s.unionSignature(0, 1, nil)
	want := s.Signature(orIdx)
	if len(got) != len(want) {
		t.Fatalf("union signature length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union sig[%d] = %x, want %x", i, got[i], want[i])
		}
	}
}

func TestUnionSignatureDstReuse(t *testing.T) {
	m := testutil.Must(matrix.New(6, [][]int32{{0, 1, 2}, {3, 4, 5}}))
	s, _ := compute(m.Stream(), 4, 1)
	dst := make([]uint64, 0, 4)
	out := s.unionSignature(0, 1, dst)
	if cap(out) != cap(dst) {
		t.Error("unionSignature reallocated despite sufficient capacity")
	}
	if len(out) != 4 {
		t.Errorf("union signature length %d, want 4", len(out))
	}
}

// TestTheorem2Unbiased: over the fixed seeds 1..lawSeeds, the mean of
// Theorem 2's estimate on each planted pair (S = 0.2, 0.5, 0.8 exactly)
// lies within 3 standard errors of S.
func TestTheorem2Unbiased(t *testing.T) {
	m := lawMatrix(t)
	for p, s := range lawSims {
		var sum, sumSq float64
		for seed := uint64(1); seed <= lawSeeds; seed++ {
			sk, err := compute(m.Stream(), lawK, seed)
			if err != nil {
				t.Fatal(err)
			}
			e := sk.UnbiasedEstimate(2*p, 2*p+1)
			sum, sumSq = sum+e, sumSq+e*e
		}
		mean := sum / lawSeeds
		se := math.Sqrt((sumSq/lawSeeds - mean*mean) / (lawSeeds - 1))
		t.Logf("S=%.1f: mean %.4f, standard error %.4f", s, mean, se)
		if math.Abs(mean-s) > 3*se {
			t.Errorf("S=%.1f: mean unbiased estimate %.4f is %.1f standard errors (%.4f) from S",
				s, mean, math.Abs(mean-s)/se, se)
		}
	}
}

func TestIntersectionSize(t *testing.T) {
	s := &Sketches{K: 4, Sigs: [][]uint64{{1, 3, 5, 9}, {2, 3, 9, 11}}, ColSizes: []int{4, 4}}
	if got := s.intersectionSize(0, 1); got != 2 {
		t.Errorf("intersectionSize = %d, want 2", got)
	}
	if got := s.intersectionSize(1, 0); got != 2 {
		t.Errorf("intersectionSize swapped = %d, want 2", got)
	}
}

func TestUnbiasedEstimateIdenticalColumns(t *testing.T) {
	m := testutil.Must(matrix.New(20, [][]int32{
		{0, 3, 6, 9, 12},
		{0, 3, 6, 9, 12},
	}))
	s, _ := compute(m.Stream(), 3, 21)
	if got := s.UnbiasedEstimate(0, 1); got != 1 {
		t.Errorf("identical columns estimate = %v, want 1", got)
	}
}

func TestUnbiasedEstimateDisjointColumns(t *testing.T) {
	m := testutil.Must(matrix.New(20, [][]int32{
		{0, 1, 2, 3, 4},
		{10, 11, 12, 13, 14},
	}))
	s, _ := compute(m.Stream(), 4, 22)
	if got := s.UnbiasedEstimate(0, 1); got != 0 {
		t.Errorf("disjoint columns estimate = %v, want 0", got)
	}
}

// TestBiasedEstimateTracksTruth: with k comparable to column sizes the
// biased estimator should land near the truth on average.
func TestBiasedEstimateTracksTruth(t *testing.T) {
	rng := hashing.NewSplitMix64(31)
	m := randomMatrix(rng, 300, 2, 0.25)
	truth := m.Similarity(0, 1)
	const trials, k = 300, 20
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		s, err := compute(m.Stream(), k, uint64(5000+trial))
		if err != nil {
			t.Fatal(err)
		}
		sum += s.biasedEstimate(0, 1)
	}
	mean := sum / trials
	if math.Abs(mean-truth) > 0.1 {
		t.Errorf("mean biased estimate %v, truth %v", mean, truth)
	}
}

func TestBiasedEstimateExactWhenColumnsSmall(t *testing.T) {
	// When both columns have fewer than k rows, SIG = full column and
	// the biased estimator is exact.
	m := testutil.Must(matrix.New(30, [][]int32{
		{0, 5, 10, 15},
		{5, 10, 20},
	}))
	s, _ := compute(m.Stream(), 16, 77)
	want := m.Similarity(0, 1)
	if got := s.biasedEstimate(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("biased estimate %v, want exact %v", got, want)
	}
}

func TestLemma1Bounds(t *testing.T) {
	lo, hi := lemma1Bounds(6, 10, 100)
	if lo != 6.0/20 || hi != 6.0/10 {
		t.Errorf("bounds = (%v, %v), want (0.3, 0.6)", lo, hi)
	}
	// Union smaller than k: both denominators collapse to union size.
	lo, hi = lemma1Bounds(3, 10, 5)
	if lo != 3.0/5 || hi != 3.0/5 {
		t.Errorf("bounds = (%v, %v), want (0.6, 0.6)", lo, hi)
	}
	lo, hi = lemma1Bounds(1, 10, 0)
	if lo != 0 || hi != 0 {
		t.Errorf("bounds with empty union = (%v, %v), want (0, 0)", lo, hi)
	}
}

// TestLemma1Sandwich: over the fixed seeds 1..lawSeeds, the mean
// observed |SIG_i ∩ SIG_j| of each planted pair, put through Lemma 1's
// bounds with the pair's exact union size, brackets its true S. The
// unions (lawUnion) exceed 2k, so neither bound is the trivial one.
func TestLemma1Sandwich(t *testing.T) {
	m := lawMatrix(t)
	for p, s := range lawSims {
		sum := 0
		for seed := uint64(1); seed <= lawSeeds; seed++ {
			sk, err := compute(m.Stream(), lawK, seed)
			if err != nil {
				t.Fatal(err)
			}
			sum += sk.intersectionSize(2*p, 2*p+1)
		}
		lo, hi := lemma1Bounds(float64(sum)/lawSeeds, lawK, lawUnion)
		t.Logf("S=%.1f: mean |SIG_i ∩ SIG_j| %.2f, bounds [%.4f, %.4f]", s, float64(sum)/lawSeeds, lo, hi)
		if s < lo || s > hi {
			t.Errorf("S=%.1f outside Lemma 1 bounds [%.4f, %.4f]", s, lo, hi)
		}
	}
}

func TestUpdatesBounded(t *testing.T) {
	// Expected heap updates per column are O(k log n); check we are
	// within a loose constant of that.
	rng := hashing.NewSplitMix64(51)
	const rows, cols, k = 5000, 20, 8
	m := randomMatrix(rng, rows, cols, 0.5)
	s, err := compute(m.Stream(), k, 3)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(cols) * 4 * float64(k) * math.Log(float64(rows))
	if float64(s.Updates) > bound {
		t.Errorf("updates %d exceed loose bound %v", s.Updates, bound)
	}
}

func TestQuickSignaturesSortedDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		m := randomMatrix(rng, 60, 5, 0.3)
		s, err := compute(m.Stream(), 5, seed)
		if err != nil {
			return false
		}
		for c := 0; c < 5; c++ {
			sig := s.Signature(c)
			if len(sig) > 5 || len(sig) > m.ColumnSize(c) {
				return false
			}
			for i := 1; i < len(sig); i++ {
				if sig[i-1] >= sig[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstimatorsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		m := randomMatrix(rng, 50, 4, 0.3)
		s, err := compute(m.Stream(), 4, seed^77)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if s.UnbiasedEstimate(i, j) != s.UnbiasedEstimate(j, i) {
					return false
				}
				if s.biasedEstimate(i, j) != s.biasedEstimate(j, i) {
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

// compute scans src once and returns the bottom-k sketch of every
// column: NewFoldState, FoldRow over one Scan, Finish.
func compute(src matrix.RowSource, k int, seed uint64) (*Sketches, error) {
	st, err := NewFoldState(src.NumCols(), k, seed)
	if err != nil {
		return nil, err
	}
	err = src.Scan(func(row int, cols []int32) error {
		st.FoldRow(row, cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.Finish(), nil
}
