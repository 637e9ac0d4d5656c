package matrix

import "assocmine/internal/hashing"

// FoldRows implements the density-doubling step of Hamming-LSH (paper
// Section 4.2): rows are paired uniformly at random and each pair is
// replaced by its bitwise OR, halving the number of rows (an odd
// trailing row passes through unchanged). Repeated folding produces the
// sequence M_0, M_1, M_2, ... of increasingly dense matrices on which
// the algorithm samples row bits.
func (m *Matrix) FoldRows(rng *hashing.SplitMix64) *Matrix {
	n := m.rows
	newRows := (n + 1) / 2
	if n <= 1 {
		// Folding a 0- or 1-row matrix is the identity.
		cols := make([][]int32, len(m.cols))
		for c, col := range m.cols {
			cols[c] = append([]int32(nil), col...)
		}
		return &Matrix{rows: n, cols: cols}
	}
	// pairOf[r] = index of the folded row that source row r lands in.
	perm := rng.Perm(n)
	pairOf := make([]int32, n)
	for i, r := range perm {
		pairOf[r] = int32(i / 2)
	}
	cols := make([][]int32, len(m.cols))
	// Per-column: map source rows through pairOf, sort, dedup. A
	// column's folded size can only shrink or stay equal.
	for c, col := range m.cols {
		if len(col) == 0 {
			continue
		}
		mapped := make([]int32, len(col))
		for i, r := range col {
			mapped[i] = pairOf[r]
		}
		cols[c] = SortDedup(mapped)
	}
	return &Matrix{rows: newRows, cols: cols}
}

// insertionSortInt32 sorts small-to-medium int32 slices. Folded column
// lists are nearly sorted already (pairing preserves locality in
// expectation poorly, but columns are short relative to n), so a simple
// binary-insertion sort with a merge fallback keeps constants low.
func insertionSortInt32(s []int32) {
	if len(s) > 64 {
		mergeSortInt32(s, make([]int32, len(s)))
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func mergeSortInt32(s, buf []int32) {
	if len(s) <= 32 {
		insertionSortInt32Small(s)
		return
	}
	mid := len(s) / 2
	mergeSortInt32(s[:mid], buf[:mid])
	mergeSortInt32(s[mid:], buf[mid:])
	copy(buf, s[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < len(s) {
		if buf[i] <= s[j] {
			s[k] = buf[i]
			i++
		} else {
			s[k] = s[j]
			j++
		}
		k++
	}
	copy(s[k:], buf[i:mid])
}

func insertionSortInt32Small(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// FoldLadder returns the sequence M_0 = m, M_1, ..., M_d where each
// matrix is the OR-fold of its predecessor, stopping after maxLevels
// matrices or when a fold would drop below 2 rows. M_0 is shared with
// the receiver, not copied.
func (m *Matrix) FoldLadder(rng *hashing.SplitMix64, maxLevels int) []*Matrix {
	ladder := []*Matrix{m}
	cur := m
	for len(ladder) < maxLevels && cur.rows > 2 {
		cur = cur.FoldRows(rng)
		ladder = append(ladder, cur)
	}
	return ladder
}
