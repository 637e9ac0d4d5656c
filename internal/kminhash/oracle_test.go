package kminhash

import (
	"math"
	"testing"

	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// The estimators below are the test oracles of Section 3.2 and Section 7:
// nothing outside the tests computes them one pair at a time. Hash-Count
// accumulates |SIG_i ∩ SIG_j| for every pair at once and hands it to
// BiasedEstimateFromCount; the Boolean-expression evaluator builds its
// own union sketches.

// unionSignature returns SIG_{i∪j}: the k smallest distinct values of
// SIG_i ∪ SIG_j, written into dst (allocated if nil).
func (s *Sketches) unionSignature(i, j int, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, 0, s.K)
	}
	dst = dst[:0]
	a, b := s.Sigs[i], s.Sigs[j]
	ai, bi := 0, 0
	for len(dst) < s.K && (ai < len(a) || bi < len(b)) {
		switch {
		case bi >= len(b) || (ai < len(a) && a[ai] < b[bi]):
			dst = append(dst, a[ai])
			ai++
		case ai >= len(a) || b[bi] < a[ai]:
			dst = append(dst, b[bi])
			bi++
		default: // equal
			dst = append(dst, a[ai])
			ai++
			bi++
		}
	}
	return dst
}

// intersectionSize returns |SIG_i ∩ SIG_j|, the statistic Hash-Count
// accumulates and Lemma 1 bounds.
func (s *Sketches) intersectionSize(i, j int) int {
	a, b := s.Sigs[i], s.Sigs[j]
	ai, bi, n := 0, 0, 0
	for ai < len(a) && bi < len(b) {
		switch {
		case a[ai] < b[bi]:
			ai++
		case a[ai] > b[bi]:
			bi++
		default:
			n++
			ai++
			bi++
		}
	}
	return n
}

// biasedEstimate is BiasedEstimateFromCount over the pair's own
// |SIG_i ∩ SIG_j|.
func (s *Sketches) biasedEstimate(i, j int) float64 {
	return s.BiasedEstimateFromCount(i, j, s.intersectionSize(i, j))
}

// lemma1Bounds returns the Lemma 1 sandwich on the true similarity
// given the expected signature-intersection size e and the exact union
// size |C_i ∪ C_j|:
//
//	e/min(2k, u) <= S <= e/min(k, u).
func lemma1Bounds(e float64, k, unionSize int) (lo, hi float64) {
	den1 := 2 * k
	if unionSize < den1 {
		den1 = unionSize
	}
	den2 := k
	if unionSize < den2 {
		den2 = unionSize
	}
	if den1 > 0 {
		lo = e / float64(den1)
	}
	if den2 > 0 {
		hi = e / float64(den2)
	}
	return lo, hi
}

// estimateUnionSize estimates |C_i ∪ C_j| from the two columns'
// sketches via the union sketch.
func (s *Sketches) estimateUnionSize(i, j int) float64 {
	u := s.unionSignature(i, j, nil)
	// If the union sketch is not full, it holds every union member.
	if len(u) < s.K {
		return float64(len(u))
	}
	return EstimateCardinality(u, s.K)
}

// estimateIntersectionSize estimates |C_i ∩ C_j| by inclusion-
// exclusion: |C_i| + |C_j| - |C_i ∪ C_j|, clamped to the feasible
// range.
func (s *Sketches) estimateIntersectionSize(i, j int) float64 {
	inter := float64(s.ColSizes[i]) + float64(s.ColSizes[j]) - s.estimateUnionSize(i, j)
	if inter < 0 {
		return 0
	}
	maxI := float64(s.ColSizes[i])
	if float64(s.ColSizes[j]) < maxI {
		maxI = float64(s.ColSizes[j])
	}
	if inter > maxI {
		return maxI
	}
	return inter
}

// The estimator laws of Section 3.2 are tested on one fixed design:
// lawSeeds sketches of size lawK of three planted pairs, each over
// lawUnion rows, at S = 0.2, 0.5 and 0.8 exactly.
const (
	lawK     = 32
	lawSeeds = 300
	lawUnion = 200
)

var lawSims = []float64{0.2, 0.5, 0.8}

// lawMatrix returns the planted pairs: columns 2p and 2p+1 at lawSims[p].
func lawMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	rows, cols := testutil.PlantedPairs(lawUnion, lawSims)
	m := testutil.Must(matrix.New(rows, cols))
	for p, s := range lawSims {
		if got := m.Similarity(2*p, 2*p+1); math.Abs(got-s) > 1e-12 {
			t.Fatalf("planted pair %d has similarity %v, want %v", p, got, s)
		}
	}
	return m
}
