// Package pairs provides the column-pair value types shared by the
// candidate-generation, LSH, and verification stages: an ordered pair
// of column indices, a deduplicating pair set, and scored pairs.
package pairs

import (
	"cmp"
	"slices"
	"sort"
)

// Pair is an unordered column pair stored canonically with I < J.
type Pair struct {
	I, J int32
}

// Make returns the canonical Pair for columns a and b. It panics when
// a == b; self-pairs are never candidates.
func Make(a, b int32) Pair {
	switch {
	case a < b:
		return Pair{I: a, J: b}
	case a > b:
		return Pair{I: b, J: a}
	default:
		panic("pairs: self pair")
	}
}

// Key packs the pair into one word, I in the high half: keys order like
// (I, J). It is the repository's one pair encoding — the Set's map key,
// the BPS tally key, the exact all-pairs counter key and the dist wire
// key.
func (p Pair) Key() uint64 { return uint64(uint32(p.I))<<32 | uint64(uint32(p.J)) }

// FromKey is the inverse of Key.
func FromKey(k uint64) Pair { return Pair{I: int32(k >> 32), J: int32(k)} }

// Scored is a pair annotated with an estimated and (optionally) exact
// similarity, as produced by candidate generation and verification.
type Scored struct {
	Pair
	// Estimate is the signature-based similarity estimate that made
	// this pair a candidate; NaN when the generating scheme produces no
	// estimate (H-LSH, M-LSH bucket collisions).
	Estimate float64
	// Exact is the verified similarity from the pruning pass; only
	// meaningful after verification.
	Exact float64
}

// Set is a deduplicating collection of Pairs.
type Set struct {
	m map[uint64]struct{}
	s []Pair
}

// NewSet returns an empty Set with capacity hint n.
func NewSet(n int) *Set {
	return &Set{m: make(map[uint64]struct{}, n)}
}

// Add inserts the canonical pair (a, b); it reports whether the pair
// was new.
func (s *Set) Add(a, b int32) bool {
	p := Make(a, b)
	k := p.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = struct{}{}
	s.s = append(s.s, p)
	return true
}

// Contains reports whether the pair (a, b) is in the set.
func (s *Set) Contains(a, b int32) bool {
	_, ok := s.m[Make(a, b).Key()]
	return ok
}

// Len returns the number of distinct pairs.
func (s *Set) Len() int { return len(s.s) }

// Slice returns the pairs in insertion order. The caller must not
// modify the returned slice.
func (s *Set) Slice() []Pair { return s.s }

// SortByKey orders scored pairs by (I, J) in place: the order the dist
// wire codec ships candidate runs in.
func SortByKey(ps []Scored) {
	slices.SortFunc(ps, func(a, b Scored) int { return cmp.Compare(a.Key(), b.Key()) })
}

// SortScored orders scored pairs by decreasing Exact similarity,
// breaking ties by (I, J) so output is deterministic.
func SortScored(ps []Scored) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Exact != ps[b].Exact {
			return ps[a].Exact > ps[b].Exact
		}
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}
