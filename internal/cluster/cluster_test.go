package cluster

import (
	"reflect"
	"testing"
	"testing/quick"

	"assocmine/internal/pairs"
)

func mkPairs(ps ...[2]int32) []pairs.Pair {
	out := make([]pairs.Pair, len(ps))
	for i, p := range ps {
		out[i] = pairs.Make(p[0], p[1])
	}
	return out
}

func TestComponentsBasic(t *testing.T) {
	// Two components: {0,1,2} (chain) and {5,6}; 3,4 isolated.
	comps := Components(8, mkPairs([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{5, 6}))
	want := [][]int32{{0, 1, 2}, {5, 6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v, want %v", comps, want)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := Components(5, nil); len(got) != 0 {
		t.Fatalf("Components on no edges = %v", got)
	}
}

func TestComponentsDuplicateEdges(t *testing.T) {
	comps := Components(4, mkPairs([2]int32{0, 1}, [2]int32{1, 0}, [2]int32{0, 1}))
	if len(comps) != 1 || !reflect.DeepEqual(comps[0], []int32{0, 1}) {
		t.Fatalf("Components = %v", comps)
	}
}

func TestComponentsSortedBySize(t *testing.T) {
	comps := Components(10, mkPairs(
		[2]int32{8, 9},
		[2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3},
	))
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 2 {
		t.Fatalf("Components = %v", comps)
	}
}

func TestDensity(t *testing.T) {
	edges := pairs.NewSet(4)
	edges.Add(0, 1)
	edges.Add(1, 2)
	edges.Add(0, 2)
	// Triangle: density 1.
	if d := density([]int32{0, 1, 2}, edges); d != 1 {
		t.Errorf("triangle density = %v", d)
	}
	// Chain of 3 within a 3-set missing one edge: 2/3.
	edges2 := pairs.NewSet(2)
	edges2.Add(0, 1)
	edges2.Add(1, 2)
	if d := density([]int32{0, 1, 2}, edges2); d != 2.0/3 {
		t.Errorf("chain density = %v", d)
	}
	if d := density([]int32{0}, edges); d != 0 {
		t.Errorf("singleton density = %v", d)
	}
}

func TestDenseComponentsFiltersChains(t *testing.T) {
	// A clique {0,1,2} and a long chain 4-5-6-7 (density 0.5).
	ps := mkPairs(
		[2]int32{0, 1}, [2]int32{1, 2}, [2]int32{0, 2},
		[2]int32{4, 5}, [2]int32{5, 6}, [2]int32{6, 7},
	)
	dense := DenseComponents(8, ps, 0.9)
	if len(dense) != 1 || !reflect.DeepEqual(dense[0], []int32{0, 1, 2}) {
		t.Fatalf("DenseComponents = %v", dense)
	}
	loose := DenseComponents(8, ps, 0.4)
	if len(loose) != 2 {
		t.Fatalf("loose DenseComponents = %v", loose)
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 16
		var ps []pairs.Pair
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := int32(raw[i]%n), int32(raw[i+1]%n)
			if a == b {
				continue
			}
			ps = append(ps, pairs.Make(a, b))
		}
		comps := Components(n, ps)
		// Components are disjoint and every edge stays within one.
		owner := map[int32]int{}
		for ci, comp := range comps {
			for i, c := range comp {
				if i > 0 && comp[i-1] >= c {
					return false // not sorted/unique
				}
				if _, dup := owner[c]; dup {
					return false // overlap
				}
				owner[c] = ci
			}
		}
		for _, p := range ps {
			if owner[p.I] != owner[p.J] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
