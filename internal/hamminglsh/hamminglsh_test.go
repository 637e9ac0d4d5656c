package hamminglsh

import (
	"slices"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

func TestOptionsValidation(t *testing.T) {
	m := testutil.Must(matrix.New(8, [][]int32{{0, 1}}))
	bad := []Options{
		{R: 0, L: 1},
		{R: 65, L: 1},
		{R: 4, L: 0},
	}
	for i, o := range bad {
		if _, _, err := Candidates(m.Stream(), o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

func TestDefaults(t *testing.T) {
	o := Options{R: 4, L: 1}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	// 1024 rows halve nine times before two remain: ten levels.
	if got := maxLevels(1024); got != 10 {
		t.Errorf("maxLevels(1024) = %d, want 10", got)
	}
}

// pairFold is the fold the shift ladder replaced, over rows already
// relabelled by π: rows 2i and 2i+1 OR into row i, and an odd last row
// passes through alone.
func pairFold(m *matrix.Matrix) *matrix.Matrix {
	cols := make([][]int32, m.NumCols())
	for c := range cols {
		for _, r := range m.Column(c) {
			cols[c] = append(cols[c], r/2)
		}
		cols[c] = matrix.SortDedup(cols[c])
	}
	return testutil.Must(matrix.New((m.NumRows()+1)/2, cols))
}

// TestFoldLadder holds the shift ladder to the pair folds it replaced:
// for a fixed π, level ℓ equals ℓ consecutive-pair OR-folds of the
// π-relabelled matrix, over the levels the pair-fold ladder made (at most
// maxLevels(n), and no fold once 2 or fewer rows remain).
func TestFoldLadder(t *testing.T) {
	densities := []float64{0, 1, 0.01, 0.1, 0.5, 0.9}
	for _, n := range []int{0, 1, 2, 3, 5, 1024, 1025} {
		rng := hashing.NewSplitMix64(uint64(n))
		perm := rng.Perm(n)
		b, rb := matrix.NewBuilder(n, len(densities)), matrix.NewBuilder(n, len(densities))
		for r := 0; r < n; r++ {
			for c, p := range densities {
				if rng.Float64() < p {
					b.Set(r, c)
					rb.Set(perm[r], c)
				}
			}
		}
		m := b.Build()
		var want []*matrix.Matrix
		for level := rb.Build(); ; level = pairFold(level) {
			want = append(want, level)
			if len(want) == maxLevels(n) || level.NumRows() <= 2 {
				break
			}
		}
		if len(want) != maxLevels(n) {
			t.Errorf("n=%d: the pair folds made %d levels, maxLevels says %d", n, len(want), maxLevels(n))
		}
		cols, err := relabel(m.Stream(), perm)
		if err != nil {
			t.Fatal(err)
		}
		levels := 0
		ladder(n, cols, func(rows int, cols [][]int32) {
			defer func() { levels++ }()
			if levels >= len(want) {
				return
			}
			w := want[levels]
			if rows != w.NumRows() {
				t.Errorf("n=%d level %d: %d rows, want %d", n, levels, rows, w.NumRows())
			}
			for c, col := range cols {
				if !slices.Equal(col, w.Column(c)) {
					t.Errorf("n=%d level %d column %d: %v, want %v", n, levels, c, col, w.Column(c))
				}
			}
		})
		if levels != len(want) {
			t.Errorf("n=%d: the shift ladder made %d levels, want %d", n, levels, len(want))
		}
		if _, st, err := Candidates(m.Stream(), Options{R: 4, L: 1, Seed: 1}); err != nil || st.Levels != maxLevels(n) {
			t.Errorf("n=%d: Candidates ran %d levels (err %v), want %d", n, st.Levels, err, maxLevels(n))
		}
	}
}

// plantedSparse builds a sparse matrix (densities ~1%) with
// near-duplicate planted pairs — the regime H-LSH's fold ladder exists
// for: no column is eligible at level 0, but duplicates stay similar as
// densities double.
func plantedSparse(rng *hashing.SplitMix64, rows, cols int) (*matrix.Matrix, *pairs.Set) {
	b := matrix.NewBuilder(rows, cols)
	planted := pairs.NewSet(cols / 2)
	for c := 0; c+1 < cols; c += 4 {
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.01 {
				b.Set(r, c)
				b.Set(r, c+1)
			}
		}
		planted.Add(int32(c), int32(c+1))
		for off := 2; off < 4 && c+off < cols; off++ {
			for r := 0; r < rows; r++ {
				if rng.Float64() < 0.01 {
					b.Set(r, c+off)
				}
			}
		}
	}
	return b.Build(), planted
}

func TestCandidatesFindSparseDuplicates(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m, planted := plantedSparse(rng, 4096, 40)
	set, st, err := Candidates(m.Stream(), Options{R: 8, L: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels < 5 {
		t.Errorf("ladder only %d levels for 4096 rows", st.Levels)
	}
	missed, total := 0, 0
	for _, p := range planted.Slice() {
		if m.Similarity(int(p.I), int(p.J)) > 0.9 {
			total++
			if !set.Contains(p.I, p.J) {
				missed++
			}
		}
	}
	if total == 0 {
		t.Fatal("fixture planted no high-similarity pairs")
	}
	if missed > total/5 {
		t.Errorf("H-LSH missed %d/%d near-duplicate pairs", missed, total)
	}
}

func TestDensityGateSkipsLevelZero(t *testing.T) {
	// With 1% densities at level 0 and T=4, no column sits in
	// (0.25, 0.75) before several folds.
	rng := hashing.NewSplitMix64(3)
	m, _ := plantedSparse(rng, 2048, 20)
	_, st, err := Candidates(m.Stream(), Options{R: 6, L: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.EligibleByLvl) == 0 {
		t.Fatal("no levels recorded")
	}
	if st.EligibleByLvl[0] != 0 {
		t.Errorf("%d columns eligible at level 0 despite 1%% density", st.EligibleByLvl[0])
	}
	foundEligible := false
	for _, n := range st.EligibleByLvl {
		if n > 0 {
			foundEligible = true
		}
	}
	if !foundEligible {
		t.Error("no level ever had eligible columns")
	}
}

func TestMoreRunsMoreCandidates(t *testing.T) {
	// Fig. 7c: increasing l increases collisions (fewer false
	// negatives, more false positives).
	rng := hashing.NewSplitMix64(4)
	m, _ := plantedSparse(rng, 2048, 60)
	few, _, err := Candidates(m.Stream(), Options{R: 8, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := Candidates(m.Stream(), Options{R: 8, L: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if many.Len() < few.Len() {
		t.Errorf("more runs produced fewer candidates: %d < %d", many.Len(), few.Len())
	}
}

func TestLargerRFewerCandidates(t *testing.T) {
	// Fig. 7a: increasing r decreases collision probability.
	rng := hashing.NewSplitMix64(5)
	m, _ := plantedSparse(rng, 2048, 60)
	coarse, _, err := Candidates(m.Stream(), Options{R: 2, L: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fine, _, err := Candidates(m.Stream(), Options{R: 24, L: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Len() > coarse.Len() {
		t.Errorf("larger r produced more candidates: %d > %d", fine.Len(), coarse.Len())
	}
}

func TestDeterministicInSeed(t *testing.T) {
	rng := hashing.NewSplitMix64(6)
	m, _ := plantedSparse(rng, 1024, 20)
	a, _, err := Candidates(m.Stream(), Options{R: 6, L: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Candidates(m.Stream(), Options{R: 6, L: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different candidate counts: %d vs %d", a.Len(), b.Len())
	}
	for _, p := range a.Slice() {
		if !b.Contains(p.I, p.J) {
			t.Fatalf("same seed, pair (%d,%d) missing from second run", p.I, p.J)
		}
	}
}

func TestTinyMatrix(t *testing.T) {
	m := testutil.Must(matrix.New(2, [][]int32{{0}, {0}, {1}}))
	set, _, err := Candidates(m.Stream(), Options{R: 2, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Columns 0 and 1 are identical with density 0.5 in (0.25,0.75):
	// eligible at level 0 and always hashed identically.
	if !set.Contains(0, 1) {
		t.Error("identical eligible columns not candidates")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := testutil.Must(matrix.New(0, [][]int32{{}, {}}))
	set, _, err := Candidates(m.Stream(), Options{R: 4, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 0 {
		t.Errorf("empty matrix produced %d candidates", set.Len())
	}
}

func TestQuickNoSelfPairsNoDuplicates(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		b := matrix.NewBuilder(256, 10)
		for c := 0; c < 10; c++ {
			for r := 0; r < 256; r++ {
				if rng.Float64() < 0.05 {
					b.Set(r, c)
				}
			}
		}
		set, _, err := Candidates(b.Build().Stream(), Options{R: 4, L: 3, Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range set.Slice() {
			if p.I >= p.J || p.I < 0 || p.J > 9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
