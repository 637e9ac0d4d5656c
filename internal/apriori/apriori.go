// Package apriori implements the a-priori baseline the paper compares
// against (Fig. 4) for the one job it does there: the similar pairs
// among the columns that survive support pruning. Following Agrawal et
// al., it makes two data passes: the first counts every column's
// support, the second counts the support of every pair of frequent
// columns, in a triangular array of counters.
//
// The paper's central observation is that a-priori is useless without
// support pruning: as the support threshold drops the candidate sets
// explode until the algorithm runs out of memory ("for support
// threshold of 0.01 percent and less, a priori algorithm runs out of
// memory on our systems"). Options.MemoryBudget models that failure
// mode deterministically: each pass is charged before it holds its
// counters, and mining aborts with ErrMemoryBudget when a charge
// exceeds the budget.
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
	// MemoryBudget bounds the charged bytes of either pass's counters;
	// zero means unlimited.
	MemoryBudget int64
}

// PairBytes is the charge for counting the pairs of f frequent
// columns: C(f, 2) candidates at 24 bytes each — two items, a counter
// and an index entry, the candidate list of the 2000-era implementations
// the paper ran out of memory with — not the 4 bytes a counter of the
// triangular array takes.
func PairBytes(f int) int64 {
	return pairCount(f) * (2*4 + 16)
}

// pairCount is C(f, 2), the number of pairs of f columns.
func pairCount(f int) int64 {
	return int64(f) * int64(f-1) / 2
}

// pairIndex is the position of the pair (i, j), i < j < f, in the
// triangular array of f columns' pairs: row i holds (i, i+1) .. (i, f-1)
// after the f-1 + f-2 + ... + f-i pairs of the rows before it.
func pairIndex(i, j, f int) int64 {
	i64 := int64(i)
	return i64*int64(f) - i64*(i64+1)/2 + int64(j-i-1)
}

// minCount is the absolute support a fraction s of n rows asks for,
// ⌈s·n⌉, and at least 1.
func minCount(s float64, n int) int {
	c := int(s * float64(n))
	if float64(c) < s*float64(n) {
		c++
	}
	return max(c, 1)
}

// Result is what the two passes counted: the frequent columns, their
// supports and the support of every pair of them.
type Result struct {
	minCount int
	cols     []int32 // the frequent columns, ascending
	support  []int32 // support[i] is cols[i]'s
	both     []int32 // both[pairIndex(i, j, len(cols))] is {cols[i], cols[j]}'s
}

// Mine counts the frequent columns of src and the pairs among them. It
// makes one pass when fewer than two columns are frequent or a charge
// fails, and two otherwise.
func Mine(src matrix.RowSource, opt Options) (*Result, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("apriori: MinSupport must be in (0,1], got %v", opt.MinSupport)
	}
	over := func(bytes int64) bool { return opt.MemoryBudget > 0 && bytes > opt.MemoryBudget }
	m := src.NumCols()
	res := &Result{minCount: minCount(opt.MinSupport, src.NumRows())}

	// Pass 1: singleton supports.
	counts := make([]int32, m)
	err := src.Scan(func(_ int, cols []int32) error {
		for _, c := range cols {
			counts[c]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if over(int64(m) * 4) {
		return nil, ErrMemoryBudget
	}
	// counts becomes each column's rank among the frequent ones, -1 for
	// the rest.
	for c, cnt := range counts {
		counts[c] = -1
		if int(cnt) >= res.minCount {
			counts[c] = int32(len(res.cols))
			res.cols = append(res.cols, int32(c))
			res.support = append(res.support, cnt)
		}
	}
	f := len(res.cols)
	if f < 2 {
		return res, nil
	}

	// Pass 2: pair supports. A row's frequent ranks ascend with its
	// columns, so each pair of them is (i, j) with i < j.
	if over(PairBytes(f)) {
		return nil, ErrMemoryBudget
	}
	res.both = make([]int32, pairCount(f))
	var ranks []int32
	err = src.Scan(func(_ int, cols []int32) error {
		ranks = ranks[:0]
		for _, c := range cols {
			if r := counts[c]; r >= 0 {
				ranks = append(ranks, r)
			}
		}
		for a, i := range ranks {
			row := res.both[pairIndex(int(i), int(i)+1, f):]
			for _, j := range ranks[a+1:] {
				row[j-i-1]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SimilarPairs converts a mined Result into the paper's similar-pair
// output: the frequent pairs with Jaccard similarity >= threshold,
// computed from the support counts (sim = n_ij / (n_i + n_j - n_ij)).
func (r *Result) SimilarPairs(threshold float64) ([]pairs.Scored, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("apriori: threshold must be in [0,1], got %v", threshold)
	}
	var out []pairs.Scored
	k := 0 // pairIndex(i, j, len(r.cols)): the array is walked in order
	for i, si := range r.support {
		for j := i + 1; j < len(r.cols); j, k = j+1, k+1 {
			both := int(r.both[k])
			if both < r.minCount {
				continue
			}
			s := float64(both) / float64(int(si)+int(r.support[j])-both)
			if s >= threshold {
				out = append(out, pairs.Scored{Pair: pairs.Make(r.cols[i], r.cols[j]), Estimate: s, Exact: s})
			}
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
	need := minCount(minSupport, m.NumRows())
	var keep []int32
	for c := 0; c < m.NumCols(); c++ {
		if m.ColumnSize(c) >= need {
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
