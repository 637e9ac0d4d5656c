// Package cluster groups similar-pair output into column clusters —
// the paper's "clusters of words, i.e., groups of words for which most
// of the pairs in the group have high similarity" (the chess-event
// example), and the clustering application from the introduction.
//
// Two groupings are provided: connected components of the similarity
// graph (single-link, what the paper's example amounts to) and a
// stricter density filter that keeps only components where most member
// pairs are themselves edges.
package cluster

import (
	"sort"

	"assocmine/internal/pairs"
)

// Components returns the connected components (size >= 2) of the graph
// whose vertices are columns 0..numCols-1 and whose edges are the given
// pairs. Components are sorted by decreasing size, members ascending.
func Components(numCols int, ps []pairs.Pair) [][]int32 {
	parent := make([]int32, numCols)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, p := range ps {
		union(p.I, p.J)
	}
	groups := map[int32][]int32{}
	for _, p := range ps {
		// Only columns that participate in at least one edge matter.
		for _, c := range []int32{p.I, p.J} {
			root := find(c)
			members := groups[root]
			if len(members) == 0 || members[len(members)-1] != c {
				groups[root] = append(members, c)
			}
		}
	}
	out := make([][]int32, 0, len(groups))
	for _, members := range groups {
		members = dedupInt32(members)
		if len(members) >= 2 {
			out = append(out, members)
		}
	}
	sortClusters(out)
	return out
}

// density returns the fraction of member pairs of the cluster that are
// edges: 1.0 is a clique, low values indicate a chain glued by
// single-link artifacts.
func density(members []int32, edges *pairs.Set) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	present := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if edges.Contains(members[a], members[b]) {
				present++
			}
		}
	}
	return float64(present) / float64(n*(n-1)/2)
}

// DenseComponents returns the connected components whose pairwise edge
// density is at least minDensity — the shape of the paper's word
// clusters ("most of the pairs in the group have high similarity").
func DenseComponents(numCols int, ps []pairs.Pair, minDensity float64) [][]int32 {
	edges := pairs.NewSet(len(ps))
	for _, p := range ps {
		edges.Add(p.I, p.J)
	}
	var out [][]int32
	for _, comp := range Components(numCols, ps) {
		if density(comp, edges) >= minDensity {
			out = append(out, comp)
		}
	}
	sortClusters(out)
	return out
}

func dedupInt32(s []int32) []int32 {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	w := 0
	for i, v := range s {
		if i == 0 || s[w-1] != v {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

func sortClusters(cs [][]int32) {
	sort.Slice(cs, func(a, b int) bool {
		if len(cs[a]) != len(cs[b]) {
			return len(cs[a]) > len(cs[b])
		}
		return cs[a][0] < cs[b][0]
	})
}
