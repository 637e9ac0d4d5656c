// Package apriori implements the classic a-priori frequent-itemset
// algorithm of Agrawal et al., the baseline the paper compares against
// (Fig. 4). It performs level-wise candidate generation with the
// subset-pruning step enabled by the support requirement, counting
// supports in one data pass per level.
//
// The paper's central observation is that a-priori is useless without
// support pruning: as the support threshold drops the candidate sets
// explode until the algorithm runs out of memory ("for support
// threshold of 0.01 percent and less, a priori algorithm runs out of
// memory on our systems"). Options.MemoryBudget models that failure
// mode deterministically: candidate-set bytes are tracked and mining
// aborts with ErrMemoryBudget when they exceed the budget.
package apriori

import (
	"errors"
	"fmt"

	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

// ErrMemoryBudget is returned when candidate structures exceed
// Options.MemoryBudget, reproducing the out-of-memory behaviour the
// paper reports for low support thresholds.
var ErrMemoryBudget = errors.New("apriori: candidate set exceeds memory budget")

// Options configures a mining run.
type Options struct {
	// MinSupport is the s-fraction of rows an itemset must appear in.
	MinSupport float64
	// MaxLevel caps itemset size; 2 mines only pairs. Zero means
	// unbounded (run until no candidates survive).
	MaxLevel int
	// MemoryBudget bounds the bytes of live candidate/counter state;
	// zero means unlimited.
	MemoryBudget int64
	// UseHashTree counts candidate supports with the Agrawal-Srikant
	// hash tree instead of the first-item index. Identical results;
	// faster when candidate sets are large.
	UseHashTree bool
}

// itemset is a frequent attribute set with its absolute support count.
type itemset struct {
	Items   []int32 // sorted ascending
	Support int     // number of rows containing all items
}

// Result holds the frequent itemsets by level (Levels[0] = singletons)
// and accounting for the comparison experiments.
type Result struct {
	NumRows    int
	Levels     [][]itemset
	Passes     int   // data passes performed
	Candidates []int // candidate count per level
	PeakMemory int64 // peak candidate/counter bytes
}

// Mine runs the level-wise a-priori algorithm over src.
func Mine(src matrix.RowSource, opt Options) (*Result, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("apriori: MinSupport must be in (0,1], got %v", opt.MinSupport)
	}
	if opt.MaxLevel < 0 {
		return nil, fmt.Errorf("apriori: MaxLevel must be non-negative, got %d", opt.MaxLevel)
	}
	n := src.NumRows()
	m := src.NumCols()
	minCount := int(opt.MinSupport * float64(n))
	if float64(minCount) < opt.MinSupport*float64(n) {
		minCount++
	}
	if minCount < 1 {
		minCount = 1
	}
	res := &Result{NumRows: n}

	// Pass 1: singleton supports.
	counts := make([]int32, m)
	res.Passes++
	err := src.Scan(func(row int, cols []int32) error {
		for _, c := range cols {
			counts[c]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var level []itemset
	for c, cnt := range counts {
		if int(cnt) >= minCount {
			level = append(level, itemset{Items: []int32{int32(c)}, Support: int(cnt)})
		}
	}
	res.Candidates = append(res.Candidates, m)
	res.Levels = append(res.Levels, level)
	mem := int64(m) * 4
	if mem > res.PeakMemory {
		res.PeakMemory = mem
	}
	if opt.MemoryBudget > 0 && mem > opt.MemoryBudget {
		return res, ErrMemoryBudget
	}

	for k := 2; opt.MaxLevel == 0 || k <= opt.MaxLevel; k++ {
		prev := res.Levels[k-2]
		if len(prev) < 2 {
			break
		}
		cand := generateCandidates(prev, k)
		res.Candidates = append(res.Candidates, len(cand))
		if len(cand) == 0 {
			break
		}
		// Candidate memory: items + counter + index overhead.
		mem = int64(len(cand)) * (int64(k)*4 + 16)
		if mem > res.PeakMemory {
			res.PeakMemory = mem
		}
		if opt.MemoryBudget > 0 && mem > opt.MemoryBudget {
			return res, ErrMemoryBudget
		}
		var supports []int
		if opt.UseHashTree {
			supports, err = countSupportsHashTree(src, cand, k, m)
		} else {
			supports, err = countSupports(src, cand, k)
		}
		if err != nil {
			return nil, err
		}
		res.Passes++
		level = level[:0:0]
		for i, c := range cand {
			if supports[i] >= minCount {
				level = append(level, itemset{Items: c, Support: supports[i]})
			}
		}
		res.Levels = append(res.Levels, level)
		if len(level) == 0 {
			break
		}
	}
	return res, nil
}

// generateCandidates joins frequent (k-1)-itemsets sharing their first
// k-2 items and prunes candidates with any infrequent (k-1)-subset —
// the a-priori pruning step.
func generateCandidates(prev []itemset, k int) [][]int32 {
	// prev is sorted lexicographically by construction (level 1 is
	// built in column order; joins preserve order).
	freq := make(map[string]bool, len(prev))
	for _, it := range prev {
		freq[itemKey(it.Items)] = true
	}
	var cand [][]int32
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			a, b := prev[i].Items, prev[j].Items
			if !samePrefix(a, b, k-2) {
				break // sorted order: no later j shares the prefix
			}
			// Join: a + last item of b (a < b lexicographically).
			c := make([]int32, k)
			copy(c, a)
			c[k-1] = b[k-2]
			if c[k-2] >= c[k-1] {
				continue
			}
			if hasInfrequentSubset(c, freq) {
				continue
			}
			cand = append(cand, c)
		}
	}
	return cand
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasInfrequentSubset(c []int32, freq map[string]bool) bool {
	sub := make([]int32, len(c)-1)
	for drop := range c {
		copy(sub, c[:drop])
		copy(sub[drop:], c[drop+1:])
		if !freq[itemKey(sub)] {
			return true
		}
	}
	return false
}

// itemKey encodes a sorted itemset as a map key.
func itemKey(items []int32) string {
	buf := make([]byte, len(items)*4)
	for i, v := range items {
		buf[i*4] = byte(v)
		buf[i*4+1] = byte(v >> 8)
		buf[i*4+2] = byte(v >> 16)
		buf[i*4+3] = byte(v >> 24)
	}
	return string(buf)
}

// countSupports makes one pass over src counting how many rows contain
// each candidate. Candidates are indexed by their first item, then
// checked for containment against the sorted row.
func countSupports(src matrix.RowSource, cand [][]int32, k int) ([]int, error) {
	m := src.NumCols()
	byFirst := make([][]int32, m)
	for idx, c := range cand {
		byFirst[c[0]] = append(byFirst[c[0]], int32(idx))
	}
	supports := make([]int, len(cand))
	inRow := make([]int32, m) // stamp array: inRow[c] == row+1 if present
	err := src.Scan(func(row int, cols []int32) error {
		if len(cols) < k {
			return nil
		}
		stamp := int32(row + 1)
		for _, c := range cols {
			inRow[c] = stamp
		}
		for _, c := range cols {
			for _, idx := range byFirst[c] {
				items := cand[idx]
				ok := true
				for _, it := range items[1:] {
					if inRow[it] != stamp {
						ok = false
						break
					}
				}
				if ok {
					supports[idx]++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return supports, nil
}

// SimilarPairs converts a mined Result into the paper's similar-pair
// output: pairs from level 2 with Jaccard similarity >= threshold,
// computed from the support counts (sim = n_ij / (n_i + n_j - n_ij)).
func (r *Result) SimilarPairs(threshold float64) ([]pairs.Scored, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("apriori: threshold must be in [0,1], got %v", threshold)
	}
	if len(r.Levels) < 2 {
		return nil, nil
	}
	single := make(map[int32]int, len(r.Levels[0]))
	for _, it := range r.Levels[0] {
		single[it.Items[0]] = it.Support
	}
	var out []pairs.Scored
	for _, it := range r.Levels[1] {
		i, j := it.Items[0], it.Items[1]
		union := single[i] + single[j] - it.Support
		if union <= 0 {
			continue
		}
		s := float64(it.Support) / float64(union)
		if s >= threshold {
			out = append(out, pairs.Scored{Pair: pairs.Make(i, j), Estimate: s, Exact: s})
		}
	}
	pairs.SortScored(out)
	return out, nil
}

// SupportPrune returns the column indices whose support (1-count
// fraction) is at least minSupport — the preprocessing the paper
// applies to the news data before a-priori can run at all (Fig. 4's
// "number of columns after support pruning").
func SupportPrune(m *matrix.Matrix, minSupport float64) []int32 {
	minCount := int(minSupport * float64(m.NumRows()))
	if float64(minCount) < minSupport*float64(m.NumRows()) {
		minCount++
	}
	if minCount < 1 {
		minCount = 1
	}
	var keep []int32
	for c := 0; c < m.NumCols(); c++ {
		if m.ColumnSize(c) >= minCount {
			keep = append(keep, int32(c))
		}
	}
	return keep
}

// Project returns a new matrix containing only the given columns (in
// the given order), plus the mapping back to original column indices.
func Project(m *matrix.Matrix, cols []int32) (*matrix.Matrix, []int32) {
	newCols := make([][]int32, len(cols))
	mapping := make([]int32, len(cols))
	for i, c := range cols {
		col := m.Column(int(c))
		newCols[i] = append([]int32(nil), col...)
		mapping[i] = c
	}
	out, err := matrix.New(m.NumRows(), newCols)
	if err != nil {
		// Columns came from a valid matrix; re-validation cannot fail.
		panic(err)
	}
	return out, mapping
}
