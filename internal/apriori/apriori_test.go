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

func supportOf(res *Result, items ...int32) (int, bool) {
	if len(items) == 0 || len(items) > len(res.Levels) {
		return 0, false
	}
	for _, it := range res.Levels[len(items)-1] {
		if reflect.DeepEqual(it.Items, items) {
			return it.Support, true
		}
	}
	return 0, false
}

func TestMineValidation(t *testing.T) {
	m := textbook()
	for _, s := range []float64{0, -0.5, 1.5} {
		if _, err := Mine(m.Stream(), Options{MinSupport: s}); err == nil {
			t.Errorf("MinSupport %v accepted", s)
		}
	}
	if _, err := Mine(m.Stream(), Options{MinSupport: 0.5, MaxLevel: -1}); err == nil {
		t.Error("negative MaxLevel accepted")
	}
}

func TestMineTextbook(t *testing.T) {
	// minSupport 0.5 => minCount 2.
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Frequent singletons: 0(2), 1(4), 3(2).
	wantL1 := map[int32]int{0: 2, 1: 4, 3: 2}
	if len(res.Levels[0]) != len(wantL1) {
		t.Fatalf("L1 = %+v", res.Levels[0])
	}
	for _, it := range res.Levels[0] {
		if wantL1[it.Items[0]] != it.Support {
			t.Errorf("L1 itemset %+v wrong", it)
		}
	}
	// Frequent pairs: {0,1}(2), {1,3}(2).
	if len(res.Levels[1]) != 2 {
		t.Fatalf("L2 = %+v", res.Levels[1])
	}
	if s, ok := supportOf(res, 0, 1); !ok || s != 2 {
		t.Errorf("support({0,1}) = %d, %v", s, ok)
	}
	if s, ok := supportOf(res, 1, 3); !ok || s != 2 {
		t.Errorf("support({1,3}) = %d, %v", s, ok)
	}
	// No frequent triples: {0,1,3} appears once.
	if len(res.Levels) > 2 && len(res.Levels[2]) != 0 {
		t.Errorf("L3 = %+v, want empty", res.Levels[2])
	}
}

func TestMaxLevelCapsWork(t *testing.T) {
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.25, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) > 2 {
		t.Errorf("MaxLevel 2 produced %d levels", len(res.Levels))
	}
}

// TestMineMatchesBruteForce: every frequent itemset reported must have
// its exact support, and no frequent itemset may be missed.
func TestMineMatchesBruteForce(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	b := matrix.NewBuilder(60, 8)
	for c := 0; c < 8; c++ {
		for r := 0; r < 60; r++ {
			if rng.Float64() < 0.4 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	const minSupport = 0.3
	res, err := Mine(m.Stream(), Options{MinSupport: minSupport})
	if err != nil {
		t.Fatal(err)
	}
	minCount := int(math.Ceil(minSupport * 60))

	// Brute force over all itemsets up to size 4.
	var rows [][]int32
	_ = m.Stream().Scan(func(r int, cols []int32) error {
		rows = append(rows, append([]int32(nil), cols...))
		return nil
	})
	contains := func(row, items []int32) bool {
		j := 0
		for _, it := range items {
			for j < len(row) && row[j] < it {
				j++
			}
			if j == len(row) || row[j] != it {
				return false
			}
		}
		return true
	}
	var check func(items []int32, next int32)
	check = func(items []int32, next int32) {
		if len(items) > 0 && len(items) <= 4 {
			supp := 0
			for _, row := range rows {
				if contains(row, items) {
					supp++
				}
			}
			got, ok := supportOf(res, items...)
			if supp >= minCount {
				if !ok || got != supp {
					t.Errorf("itemset %v: mined (%d,%v), brute force %d", items, got, ok, supp)
				}
			} else if ok {
				t.Errorf("itemset %v reported frequent with support %d < %d", items, got, minCount)
			}
		}
		if len(items) == 4 {
			return
		}
		for c := next; c < 8; c++ {
			check(append(items, c), c+1)
		}
	}
	check(nil, 0)
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
	if _, err := Mine(m.Stream(), Options{MinSupport: 0.05, MaxLevel: 2, MemoryBudget: 1 << 30}); err != nil {
		t.Errorf("generous budget failed: %v", err)
	}
}

func TestSimilarPairs(t *testing.T) {
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.25, MaxLevel: 2})
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

func TestPassesAccounting(t *testing.T) {
	res, err := Mine(textbook().Stream(), Options{MinSupport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != len(res.Levels) && res.Passes != len(res.Levels)+1 {
		t.Errorf("Passes = %d with %d levels", res.Passes, len(res.Levels))
	}
	if res.PeakMemory <= 0 {
		t.Error("PeakMemory not tracked")
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
		res, err := Mine(m.Stream(), Options{MinSupport: 0.2, MaxLevel: 3})
		if err != nil {
			return false
		}
		minCount := int(math.Ceil(0.2 * float64(rows)))
		// Every reported pair support must match exact intersection.
		for _, it := range res.Levels[0] {
			if m.ColumnSize(int(it.Items[0])) != it.Support || it.Support < minCount {
				return false
			}
		}
		if len(res.Levels) > 1 {
			for _, it := range res.Levels[1] {
				if m.IntersectSize(int(it.Items[0]), int(it.Items[1])) != it.Support {
					return false
				}
				if it.Support < minCount {
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
