package hamminglsh

import (
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
		if _, _, err := Candidates(m, o); err == nil {
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
	set, st, err := Candidates(m, Options{R: 8, L: 10, Seed: 7})
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
	_, st, err := Candidates(m, Options{R: 6, L: 4, Seed: 9})
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
	few, _, err := Candidates(m, Options{R: 8, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := Candidates(m, Options{R: 8, L: 20, Seed: 11})
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
	coarse, _, err := Candidates(m, Options{R: 2, L: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fine, _, err := Candidates(m, Options{R: 24, L: 8, Seed: 13})
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
	a, _, err := Candidates(m, Options{R: 6, L: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Candidates(m, Options{R: 6, L: 4, Seed: 21})
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
	set, _, err := Candidates(m, Options{R: 2, L: 2, Seed: 1})
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
	set, _, err := Candidates(m, Options{R: 4, L: 2, Seed: 1})
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
		set, _, err := Candidates(b.Build(), Options{R: 4, L: 3, Seed: seed})
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
