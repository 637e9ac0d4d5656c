// Package verify implements the third phase shared by all the paper's
// algorithms: a final pass over the original data that, for each
// candidate column pair, counts the rows with a 1 in at least one of
// the two columns and the rows with a 1 in both, yielding the exact
// similarity and eliminating every false positive.
//
// It also provides the exact all-pairs ground truth the experiments
// compare against ("computed in an offline fashion by a brute-force
// counting algorithm", Section 5.1).
package verify

import (
	"fmt"

	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

// Stats reports verification work.
type Stats struct {
	In      int   // candidate pairs checked
	Out     int   // pairs surviving the threshold
	Touches int64 // per-row pair-counter updates

	// Shards counts the bounded row blocks broadcast by the streamed
	// fan-out strategies (0 when the pass scanned rows directly).
	Shards int64
	// SpillRuns and SpillBytes report the sorted runs the budgeted pass
	// wrote to disk when the counter table exceeded its memory budget
	// (both 0 when everything stayed resident; sections a staged merge
	// rewrites are not counted). SpillBytes is the bytes actually
	// written; SpillBytesRaw is what a plain uvarint-triple encoding
	// would have cost for the same entries, and SpillBytesCompressed
	// equals SpillBytes (every run is Rice-coded) — the pair prices the
	// codec for ratio reporting without a second pass.
	SpillRuns            int64
	SpillBytes           int64
	SpillBytesRaw        int64
	SpillBytesCompressed int64

	// PackedWords counts the uint64 AND-popcount word operations of the
	// packed kernel and PackedBatches the candidate batches its
	// bit-column arena was rebuilt for (both 0 on the scalar paths).
	PackedWords   int64
	PackedBatches int64
}

// pairIndex lists, for every column, the candidates it is an endpoint
// of, in increasing candidate order: of(c) is idx[start[c]:start[c+1]].
type pairIndex struct {
	start []uint32
	idx   []int32
}

// newPairIndex indexes cand (already validated) over m columns.
func newPairIndex(m int, cand []pairs.Scored) pairIndex {
	start := make([]uint32, m+2)
	for _, p := range cand {
		start[p.I+2]++
		start[p.J+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// start[c+1] is now where column c's list begins; filling advances
	// it to where the list ends, which is where column c+1's begins.
	idx := make([]int32, 2*len(cand))
	for i, p := range cand {
		idx[start[p.I+1]] = int32(i)
		start[p.I+1]++
		idx[start[p.J+1]] = int32(i)
		start[p.J+1]++
	}
	return pairIndex{start: start[:m+1], idx: idx}
}

func (x pairIndex) of(c int32) []int32 { return x.idx[x.start[c]:x.start[c+1]] }

// exactCounters is the scalar kernel over one candidate slice: the
// |C_i ∪ C_j| and |C_i ∩ C_j| counters and the last row that touched
// each candidate, which tells a row's second endpoint from its first.
type exactCounters struct {
	cand                  []pairs.Scored
	pairsOf               pairIndex
	either, both, lastRow []int32
	touches               int64
}

// newExactCounters prepares the counters of cand (already validated)
// over m columns.
func newExactCounters(m int, cand []pairs.Scored) *exactCounters {
	x := &exactCounters{cand: cand, pairsOf: newPairIndex(m, cand)}
	x.either = make([]int32, len(cand))
	x.both = make([]int32, len(cand))
	x.lastRow = make([]int32, len(cand))
	for i := range x.lastRow {
		x.lastRow[i] = -1
	}
	return x
}

// row counts one row of the data.
func (x *exactCounters) row(r int32, cols []int32) {
	either, both, lastRow := x.either, x.both, x.lastRow
	for _, c := range cols {
		idxs := x.pairsOf.of(c)
		x.touches += int64(len(idxs))
		for _, idx := range idxs {
			if lastRow[idx] == r {
				// Second endpoint seen in this row.
				both[idx]++
			} else {
				lastRow[idx] = r
				either[idx]++
			}
		}
	}
}

// survivors returns the candidates at or above threshold, in order,
// with Exact filled in, and the pass's Stats.
func (x *exactCounters) survivors(threshold float64) ([]pairs.Scored, Stats) {
	out := make([]pairs.Scored, 0, len(x.cand)/4)
	for idx, p := range x.cand {
		if x.either[idx] == 0 {
			continue
		}
		if s := float64(x.both[idx]) / float64(x.either[idx]); s >= threshold {
			p.Exact = s
			out = append(out, p)
		}
	}
	return out, Stats{In: len(x.cand), Out: len(out), Touches: x.touches}
}

// validate is what every entry point checks before counting: the
// threshold's range, the candidates' column ranges, no self pairs.
func validate(m int, cand []pairs.Scored, threshold float64) error {
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("verify: threshold must be in [0,1], got %v", threshold)
	}
	for idx, p := range cand {
		if int(p.I) >= m || int(p.J) >= m || p.I < 0 || p.J < 0 {
			return fmt.Errorf("verify: candidate %d references column out of range: (%d,%d)", idx, p.I, p.J)
		}
		if p.I == p.J {
			return fmt.Errorf("verify: candidate %d is a self pair (%d,%d)", idx, p.I, p.J)
		}
	}
	return nil
}

// Exact performs the pruning pass: one scan of src maintaining, for
// each candidate pair, |C_i ∪ C_j| and |C_i ∩ C_j| counters. It
// returns the candidates with exact similarity >= threshold, with the
// Exact field filled in (and the incoming Estimate preserved). The
// candidate list is not modified.
func Exact(src matrix.RowSource, cand []pairs.Scored, threshold float64) ([]pairs.Scored, Stats, error) {
	if err := validate(src.NumCols(), cand, threshold); err != nil {
		return nil, Stats{}, err
	}
	return exactInto(src, cand, threshold)
}

// exactInto is the counting core of Exact. Candidates must already be
// validated.
func exactInto(src matrix.RowSource, cand []pairs.Scored, threshold float64) ([]pairs.Scored, Stats, error) {
	if len(cand) == 0 {
		return nil, Stats{}, nil
	}
	x := newExactCounters(src.NumCols(), cand)
	err := src.Scan(func(row int, cols []int32) error {
		x.row(int32(row), cols)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out, st := x.survivors(threshold)
	return out, st, nil
}

// AllPairs computes the exact set of column pairs with similarity >=
// threshold by brute-force counting. It exploits sparsity: for each
// row, every pair of columns co-occurring in that row gets an
// intersection increment, so the cost is O(Σ_rows |row|²) rather than
// O(m²·n). Pairs with empty intersection can never pass a positive
// threshold and are never materialised.
func AllPairs(m *matrix.Matrix, threshold float64) ([]pairs.Scored, error) {
	return AllPairsSource(m.Stream(), threshold)
}

// AllPairsSource is AllPairs over any one-pass row source; column sizes
// are accumulated in the same pass, so the whole computation is a
// single sequential scan.
func AllPairsSource(src matrix.RowSource, threshold float64) ([]pairs.Scored, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("verify: AllPairs threshold must be in (0,1], got %v", threshold)
	}
	inter := make(map[uint64]int32, 1024)
	colSize := make([]int32, src.NumCols())
	err := src.Scan(func(row int, cols []int32) error {
		for i := 0; i < len(cols); i++ {
			colSize[cols[i]]++
			for j := i + 1; j < len(cols); j++ {
				inter[pairs.Pair{I: cols[i], J: cols[j]}.Key()]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []pairs.Scored
	for key, cnt := range inter {
		p := pairs.FromKey(key)
		union := int(colSize[p.I]) + int(colSize[p.J]) - int(cnt)
		s := float64(cnt) / float64(union)
		if s >= threshold {
			out = append(out, pairs.Scored{Pair: p, Estimate: s, Exact: s})
		}
	}
	pairs.SortScored(out)
	return out, nil
}

// CountInRanges buckets exact pair similarities into the half-open
// ranges [edges[i], edges[i+1]), returning one count per range. Used to
// build the Fig. 3 histograms and the denominators of the S-curves.
func CountInRanges(ps []pairs.Scored, edges []float64) []int {
	counts := make([]int, len(edges)-1)
	for _, p := range ps {
		for b := 0; b+1 < len(edges); b++ {
			if p.Exact >= edges[b] && (p.Exact < edges[b+1] || (b+2 == len(edges) && p.Exact <= edges[b+1])) {
				counts[b]++
				break
			}
		}
	}
	return counts
}
