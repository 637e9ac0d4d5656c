// Package kminhash implements the K-MH scheme of Section 3.2: a single
// row-order hash function, with each column's signature SIG_i being the
// k smallest hash values among its rows (a "bottom-k" sketch). Columns
// with fewer than k rows keep all their values.
//
// The signature of the implicit union column, SIG_{i∪j}, is the set of
// k smallest values of SIG_i ∪ SIG_j and is computable from the two
// signatures alone in O(k) time; Theorem 2 turns this into the unbiased
// similarity estimator |SIG_{i∪j} ∩ SIG_i ∩ SIG_j| / |SIG_{i∪j}|.
// Lemma 1 justifies a cheaper biased estimator from |SIG_i ∩ SIG_j|
// that Hash-Count computes for all pairs at once.
package kminhash

import "slices"

// Sketches holds the bottom-k signatures of every column plus the
// column sizes observed during the pass (needed by the biased
// estimator and by Lemma 1).
type Sketches struct {
	K        int
	Sigs     [][]uint64 // per column, sorted ascending, len <= K
	ColSizes []int      // |C_i| counted during the scan

	// Updates counts bounded-heap replacements during the pass; the
	// paper bounds its expectation by O(k log n) per column. Exposed
	// for the ablation benchmarks.
	Updates int64
}

// newSketches returns empty Sketches for m columns whose per-column
// heaps share one m·k backing arena: Sigs[c] starts at length 0 with
// capacity k, so every pushMaxHeap append lands in the column's own
// arena region and the pass costs one allocation instead of up to m
// heap growths.
func newSketches(m, k int) *Sketches {
	s := &Sketches{
		K:        k,
		Sigs:     make([][]uint64, m),
		ColSizes: make([]int, m),
	}
	backing := make([]uint64, m*k)
	for c := range s.Sigs {
		s.Sigs[c] = backing[c*k : c*k : (c+1)*k]
	}
	return s
}

// pushMaxHeap appends v and sifts it up (max-heap on values: root holds
// the largest of the k smallest seen so far).
func pushMaxHeap(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// replaceMaxHeapRoot overwrites the root with v and sifts down.
func replaceMaxHeapRoot(h []uint64, v uint64) {
	h[0] = v
	i := 0
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l] > h[largest] {
			largest = l
		}
		if r < n && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// sortSketch puts a column's heap array into the canonical ascending
// sketch order, in place — the one sort of the package (Finish and
// ComputeParallel both end here).
func sortSketch(sig []uint64) { slices.Sort(sig) }

// Signature returns SIG_c sorted ascending. The caller must not modify
// the returned slice.
func (s *Sketches) Signature(c int) []uint64 { return s.Sigs[c] }

// UnbiasedEstimate implements Theorem 2:
// Ŝ = |SIG_{i∪j} ∩ SIG_i ∩ SIG_j| / |SIG_{i∪j}|.
// It runs a single O(k) three-way merge. Returns 0 for two empty
// columns.
func (s *Sketches) UnbiasedEstimate(i, j int) float64 {
	a, b := s.Sigs[i], s.Sigs[j]
	ai, bi := 0, 0
	unionLen, both := 0, 0
	for unionLen < s.K && (ai < len(a) || bi < len(b)) {
		switch {
		case bi >= len(b) || (ai < len(a) && a[ai] < b[bi]):
			ai++
		case ai >= len(a) || b[bi] < a[ai]:
			bi++
		default:
			both++
			ai++
			bi++
		}
		unionLen++
	}
	if unionLen == 0 {
		return 0
	}
	return float64(both) / float64(unionLen)
}

// BiasedEstimateFromCount converts an observed |SIG_i ∩ SIG_j| (as
// Hash-Count accumulates it for every pair at once) into a similarity
// estimate using E[|SIG_i ∩ SIG_j|] ≈ k_a·|C_ij|/|C_a| where C_a is the
// larger column and k_a = min(k, |C_a|) its sample size (paper
// Section 3.2). The intersection estimate is clamped to the feasible
// range before forming |C_ij| / (|C_i|+|C_j|-|C_ij|).
func (s *Sketches) BiasedEstimateFromCount(i, j, sigInter int) float64 {
	ci, cj := s.ColSizes[i], s.ColSizes[j]
	if ci < cj {
		ci, cj = cj, ci
	}
	if cj == 0 {
		return 0
	}
	ka := ci
	if ka > s.K {
		ka = s.K
	}
	cij := float64(sigInter) * float64(ci) / float64(ka)
	if cij > float64(cj) {
		cij = float64(cj)
	}
	union := float64(ci) + float64(cj) - cij
	if union <= 0 {
		return 0
	}
	return cij / union
}
