package apriori

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// textbook example: 4 transactions over 5 items.
//
//	r0: {0,1,4}  r1: {1,3}  r2: {1,2}  r3: {0,1,3}
func textbook() *matrix.Matrix {
	m, err := matrix.FromRows(5, [][]int32{
		{0, 1, 4},
		{1, 3},
		{1, 2},
		{0, 1, 3},
	})
	if err != nil {
		panic(err)
	}
	return m
}

// singletons is res's frequent columns with their supports.
func singletons(res *Result) map[int32]int {
	out := map[int32]int{}
	for i, c := range res.cols {
		out[c] = int(res.support[i])
	}
	return out
}

// frequentPairs is res's frequent pairs of columns with their supports.
func frequentPairs(res *Result) map[[2]int32]int {
	out := map[[2]int32]int{}
	f := len(res.cols)
	for i := 0; i < f; i++ {
		for j := i + 1; j < f; j++ {
			if n := int(res.both[pairIndex(i, j, f)]); n >= res.minCount {
				out[[2]int32{res.cols[i], res.cols[j]}] = n
			}
		}
	}
	return out
}

// bruteForce counts every column and every pair of columns of m
// directly, and keeps those with support >= minCount.
func bruteForce(m *matrix.Matrix, minCount int) (map[int32]int, map[[2]int32]int) {
	single, both := map[int32]int{}, map[[2]int32]int{}
	for a := 0; a < m.NumCols(); a++ {
		if n := m.ColumnSize(a); n >= minCount {
			single[int32(a)] = n
		}
		for b := a + 1; b < m.NumCols(); b++ {
			if n := m.IntersectSize(a, b); n >= minCount {
				both[[2]int32{int32(a), int32(b)}] = n
			}
		}
	}
	return single, both
}

func TestMineValidation(t *testing.T) {
	m := textbook()
	for _, s := range []float64{0, -0.5, 1.5} {
		if _, err := Mine(m.Stream(), Options{MinSupport: s}); err == nil {
			t.Errorf("MinSupport %v accepted", s)
		}
	}
}

func TestMineTextbook(t *testing.T) {
	// minSupport 0.5 => minCount 2.
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Frequent singletons: 0(2), 1(4), 3(2).
	if got, want := singletons(res), map[int32]int{0: 2, 1: 4, 3: 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("frequent singletons %v, want %v", got, want)
	}
	// Frequent pairs: {0,1}(2), {1,3}(2); {0,3} appears once.
	if got, want := frequentPairs(res), map[[2]int32]int{{0, 1}: 2, {1, 3}: 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("frequent pairs %v, want %v", got, want)
	}
}

// TestMineMatchesBruteForce holds the two passes to a direct count over
// random matrices: the frequent columns and pairs with their supports,
// the similar pairs, and the budget's verdict at the charge and a byte
// below it. The matrices cover fewer than two frequent columns, empty
// rows, a row holding every column and a support threshold exactly at
// a column's support.
func TestMineMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		rng := hashing.NewSplitMix64(seed)
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(12)
		density := 0.1 + 0.9*rng.Float64()
		b := matrix.NewBuilder(rows, cols)
		for r := 0; r < rows; r++ {
			switch {
			case seed%5 == 1 && r%3 == 0: // empty rows
			case seed%5 == 2 && r == rows/2: // a row holding every column
				for c := 0; c < cols; c++ {
					b.Set(r, c)
				}
			default:
				for c := 0; c < cols; c++ {
					if rng.Float64() < density {
						b.Set(r, c)
					}
				}
			}
		}
		m := b.Build()
		support := 0.02 + 0.5*rng.Float64()
		switch seed % 4 {
		case 1: // exactly at a column's support
			if n := m.ColumnSize(rng.Intn(cols)); n > 0 {
				support = float64(n) / float64(rows)
			}
		case 3: // rarely more than one frequent column
			support = 0.9 + 0.1*rng.Float64()
		}
		minCount := int(math.Ceil(support * float64(rows)))
		wantSingle, wantBoth := bruteForce(m, minCount)

		res, err := Mine(m.Stream(), Options{MinSupport: support})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := singletons(res); !reflect.DeepEqual(got, wantSingle) {
			t.Errorf("seed %d: frequent singletons %v, brute force %v", seed, got, wantSingle)
		}
		if got := frequentPairs(res); len(got)+len(wantBoth) > 0 && !reflect.DeepEqual(got, wantBoth) {
			t.Errorf("seed %d: frequent pairs %v, brute force %v", seed, got, wantBoth)
		}
		threshold := rng.Float64()
		sim, err := res.SimilarPairs(threshold)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for p, n := range wantBoth {
			s := float64(n) / float64(m.ColumnSize(int(p[0]))+m.ColumnSize(int(p[1]))-n)
			if s >= threshold {
				want++
			}
		}
		if len(sim) != want {
			t.Errorf("seed %d: %d similar pairs at %v, brute force %d", seed, len(sim), threshold, want)
		}
		for _, p := range sim {
			if s := m.Similarity(int(p.I), int(p.J)); s != p.Exact || s < threshold {
				t.Errorf("seed %d: pair %+v, exact similarity %v", seed, p, s)
			}
		}

		charge := max(int64(cols)*4, PairBytes(len(wantSingle)))
		if _, err := Mine(m.Stream(), Options{MinSupport: support, MemoryBudget: charge}); err != nil {
			t.Errorf("seed %d: budget at the %d-byte charge: %v", seed, charge, err)
		}
		if _, err := Mine(m.Stream(), Options{MinSupport: support, MemoryBudget: charge - 1}); !errors.Is(err, ErrMemoryBudget) {
			t.Errorf("seed %d: budget a byte below the %d-byte charge: err = %v", seed, charge, err)
		}
	}
}

// TestPairIndex: the triangular index enumerates the pairs of f columns
// row by row, from 0 to C(f, 2)-1, in int64 past 2^31 counters; checked
// without allocating the array.
func TestPairIndex(t *testing.T) {
	for f := 2; f <= 9; f++ {
		want := int64(0)
		for i := 0; i < f; i++ {
			for j := i + 1; j < f; j++ {
				if got := pairIndex(i, j, f); got != want {
					t.Fatalf("pairIndex(%d, %d, %d) = %d, want %d", i, j, f, got, want)
				}
				want++
			}
		}
		if want != pairCount(f) {
			t.Fatalf("pairCount(%d) = %d, enumerated %d", f, pairCount(f), want)
		}
	}
	const f = 70000
	last := pairCount(f) - 1
	if last <= math.MaxInt32 {
		t.Fatalf("C(%d, 2) = %d fits an int32: the case is vacuous", f, last+1)
	}
	if got := pairIndex(0, 1, f); got != 0 {
		t.Errorf("pairIndex(0, 1) = %d", got)
	}
	if got := pairIndex(f-2, f-1, f); got != last {
		t.Errorf("pairIndex(f-2, f-1) = %d, want %d", got, last)
	}
	for _, i := range []int{1, 2, 30677, 30678, 46340, 46341, f / 2, f - 3, f - 2} {
		// Row i starts right after row i-1 ends.
		if got, want := pairIndex(i, i+1, f), pairIndex(i-1, f-1, f)+1; got != want {
			t.Errorf("pairIndex(%d, %d) = %d, want %d", i, i+1, got, want)
		}
	}
	if got, want := PairBytes(f), 24*(last+1); got != want {
		t.Errorf("PairBytes(%d) = %d, want %d", f, got, want)
	}
}

func TestMemoryBudget(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	b := matrix.NewBuilder(100, 50)
	for c := 0; c < 50; c++ {
		for r := 0; r < 100; r++ {
			if rng.Float64() < 0.5 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	// Tiny budget: must abort with ErrMemoryBudget.
	_, err := Mine(m.Stream(), Options{MinSupport: 0.05, MemoryBudget: 64})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("err = %v, want ErrMemoryBudget", err)
	}
	// Generous budget: must succeed.
	if _, err := Mine(m.Stream(), Options{MinSupport: 0.05, MemoryBudget: 1 << 30}); err != nil {
		t.Errorf("generous budget failed: %v", err)
	}
}

func TestSimilarPairs(t *testing.T) {
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.SimilarPairs(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// sim(0,1) = 2/(2+4-2) = 0.5; sim(1,3) = 2/4 = 0.5; sim(0,3)=1/3;
	// sim(0,4)=1/2; sim(1,4)=1/4; sim(1,2)=1/4.
	want := map[[2]int32]float64{
		{0, 1}: 0.5,
		{1, 3}: 0.5,
		{0, 4}: 0.5,
	}
	if len(out) != len(want) {
		t.Fatalf("SimilarPairs = %+v", out)
	}
	for _, p := range out {
		w, ok := want[[2]int32{p.I, p.J}]
		if !ok || math.Abs(p.Exact-w) > 1e-12 {
			t.Errorf("pair %+v unexpected", p)
		}
	}
	if _, err := res.SimilarPairs(1.5); err == nil {
		t.Error("threshold 1.5 accepted")
	}
}

func TestSupportPruneAndProject(t *testing.T) {
	m := textbook()
	keep := SupportPrune(m, 0.5) // items with count >= 2: 0,1,3
	want := []int32{0, 1, 3}
	if !reflect.DeepEqual(keep, want) {
		t.Fatalf("SupportPrune = %v, want %v", keep, want)
	}
	proj, mapping := Project(m, keep)
	if proj.NumCols() != 3 || proj.NumRows() != 4 {
		t.Fatalf("projected dims %dx%d", proj.NumRows(), proj.NumCols())
	}
	if !reflect.DeepEqual(mapping, want) {
		t.Errorf("mapping = %v", mapping)
	}
	if !reflect.DeepEqual(proj.Column(2), m.Column(3)) {
		t.Errorf("projected column 2 = %v", proj.Column(2))
	}
}

// TestPassesAccounting: Mine scans twice, once when fewer than two
// columns are frequent or a charge fails.
func TestPassesAccounting(t *testing.T) {
	for _, c := range []struct {
		opt  Options
		want int
	}{
		{Options{MinSupport: 0.25}, 2},
		{Options{MinSupport: 1}, 1},                       // only column 1 is frequent
		{Options{MinSupport: 0.25, MemoryBudget: 19}, 1},  // pass 1's 20 bytes
		{Options{MinSupport: 0.25, MemoryBudget: 239}, 1}, // C(5, 2)·24 = 240 bytes of pairs
		{Options{MinSupport: 0.25, MemoryBudget: 240}, 2}, // at the charge
		{Options{MinSupport: 0.5, MemoryBudget: 72}, 2},   // C(3, 2)·24
	} {
		src := &matrix.CountingSource{Src: textbook().Stream()}
		_, err := Mine(src, c.opt)
		if err != nil && !errors.Is(err, ErrMemoryBudget) {
			t.Fatal(err)
		}
		if src.Passes != c.want {
			t.Errorf("%+v: %d passes, want %d", c.opt, src.Passes, c.want)
		}
	}
}

func TestQuickAprioriSoundness(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewSplitMix64(seed)
		rows := 20 + rng.Intn(40)
		b := matrix.NewBuilder(rows, 6)
		for c := 0; c < 6; c++ {
			for r := 0; r < rows; r++ {
				if rng.Float64() < 0.3 {
					b.Set(r, c)
				}
			}
		}
		m := b.Build()
		res, err := Mine(m.Stream(), Options{MinSupport: 0.2})
		if err != nil {
			return false
		}
		minCount := int(math.Ceil(0.2 * float64(rows)))
		// Every reported support must match the exact count.
		for c, n := range singletons(res) {
			if m.ColumnSize(int(c)) != n || n < minCount {
				return false
			}
		}
		for p, n := range frequentPairs(res) {
			if m.IntersectSize(int(p[0]), int(p[1])) != n || n < minCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
