// Package verify implements the third phase shared by all the paper's
// algorithms: a final pass over the original data that, for each
// candidate column pair, counts the rows with a 1 in at least one of
// the two columns and the rows with a 1 in both, beside each column's
// ones, yielding the exact similarity — or any other measure of those
// contingency counts, §6's confidence among them — and eliminating
// every false positive.
//
// It also provides the exact all-pairs ground truth the experiments
// compare against ("computed in an offline fashion by a brute-force
// counting algorithm", Section 5.1).
package verify

import (
	"context"
	"fmt"
	"runtime"

	"assocmine/internal/matrix"
	"assocmine/internal/measures"
	"assocmine/internal/obs"
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
	// rewrites are not counted). SpillBytes is the bytes written.
	SpillRuns  int64
	SpillBytes int64

	// PackedWords counts the uint64 AND-popcount word operations the
	// packed kernel executed — ⌈|U|/64⌉ per candidate whose columns are
	// both bitmaps, U the rows of the candidate's component of the
	// candidate graph; a pair with a sparse column (a row list) costs
	// none — and PackedBatches the batches its columns were loaded in,
	// 1 for a packed pass (both 0 on the scalar paths).
	PackedWords   int64
	PackedBatches int64
}

// pairIndex lists, for every column, the candidates it is an endpoint
// of, in increasing candidate order: column c's are
// idx[start[c]:start[c+1]].
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

// admission is phase 3's one test, applied by every kernel to what it
// counted for a candidate (I, J): a non-empty union — a pair no row
// touches is never emitted, whatever the threshold — and the measure of
// the contingency counts at or above the threshold. A measure returns
// NaN for counts it does not define, and NaN passes no threshold.
type admission struct {
	n         int // rows of the pass
	threshold float64
	measure   func(measures.Counts) float64
}

func newAdmission(n int, p Params) admission {
	adm := admission{n: n, threshold: p.Threshold, measure: p.Measure}
	if adm.measure == nil {
		adm.measure = measures.Counts.Jaccard
	}
	return adm
}

// admit scores a = |C_I|, b = |C_J|, inter = |C_I ∩ C_J| of a pair the
// kernel saw in union rows and reports whether it passes.
func (adm admission) admit(a, b, inter, union int64) (float64, bool) {
	if union == 0 {
		return 0, false
	}
	s := adm.measure(measures.Counts{N: adm.n, A: int(a), B: int(b), Inter: int(inter)})
	return s, s >= adm.threshold
}

// counter is the scalar kernels' contract: the |C_i ∪ C_j| and
// |C_i ∩ C_j| counters of one contiguous slice of the candidate list,
// beside the ones of every column, fed every row of the pass in row
// order and then finished into the slice's survivors — the candidates
// the admission passes, in order, with Exact filled in. exactCounters
// keeps them dense, budgetWorker in a bounded table that spills; count
// schedules either.
type counter interface {
	processRow(r int32, cols []int32) error
	finish() ([]pairs.Scored, error)
	// work is the pass's Touches and spill activity, complete once
	// finish has returned.
	work() Stats
	// cleanup releases what the counters hold outside memory, whether
	// or not the pass got as far as finish.
	cleanup()
}

// exactCounters is the dense scalar kernel: a counter pair per
// candidate and the last row that touched it, which tells a row's
// second endpoint from its first, and a ones counter per column that
// a candidate names.
type exactCounters struct {
	cand                  []pairs.Scored
	adm                   admission
	pairsOf               pairIndex
	either, both, lastRow []int32
	ones                  []int32
	touches               int64
}

// newExactCounters prepares the counters of cand (already validated)
// over m columns.
func newExactCounters(m int, cand []pairs.Scored, adm admission) *exactCounters {
	x := &exactCounters{cand: cand, adm: adm, pairsOf: newPairIndex(m, cand), ones: make([]int32, m)}
	x.either = make([]int32, len(cand))
	x.both = make([]int32, len(cand))
	x.lastRow = make([]int32, len(cand))
	for i := range x.lastRow {
		x.lastRow[i] = -1
	}
	return x
}

// processRow counts one row of the data. A column no candidate names
// costs one lookup: neither its ones nor a counter of it is ever read.
func (x *exactCounters) processRow(r int32, cols []int32) error {
	either, both, lastRow := x.either, x.both, x.lastRow
	start := x.pairsOf.start
	for _, c := range cols {
		lo, hi := start[c], start[c+1]
		if lo == hi {
			continue
		}
		x.ones[c]++
		x.touches += int64(hi - lo)
		for _, idx := range x.pairsOf.idx[lo:hi] {
			if lastRow[idx] == r {
				// Second endpoint seen in this row.
				both[idx]++
			} else {
				lastRow[idx] = r
				either[idx]++
			}
		}
	}
	return nil
}

func (x *exactCounters) finish() ([]pairs.Scored, error) {
	out := make([]pairs.Scored, 0, len(x.cand)/4)
	for idx, p := range x.cand {
		if s, ok := x.adm.admit(int64(x.ones[p.I]), int64(x.ones[p.J]), int64(x.both[idx]), int64(x.either[idx])); ok {
			p.Exact = s
			out = append(out, p)
		}
	}
	return out, nil
}

func (x *exactCounters) work() Stats { return Stats{Touches: x.touches} }

func (x *exactCounters) cleanup() {}

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

// Exact is the scalar reference of phase 3, what every kernel, budget,
// source and worker count of Verify must reproduce bit for bit: one
// scan of src maintaining, for each candidate pair, |C_i ∪ C_j| and
// |C_i ∩ C_j| counters. It returns the candidates with exact
// similarity >= threshold, with the Exact field filled in (and the
// incoming Estimate preserved). The candidate list is not modified.
func Exact(src matrix.RowSource, cand []pairs.Scored, threshold float64) ([]pairs.Scored, Stats, error) {
	if err := validate(src.NumCols(), cand, threshold); err != nil {
		return nil, Stats{}, err
	}
	if len(cand) == 0 {
		return nil, Stats{}, nil
	}
	x := newExactCounters(src.NumCols(), cand, newAdmission(src.NumRows(), Params{Threshold: threshold}))
	err := src.Scan(func(row int, cols []int32) error {
		return x.processRow(int32(row), cols)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out, _ := x.finish()
	return out, Stats{In: len(cand), Out: len(out), Touches: x.touches}, nil
}

// Params is everything phase 3 decides on besides the data and the
// candidate list.
type Params struct {
	// Threshold is s*, in [0,1]: candidates below it are pruned.
	Threshold float64
	// Measure scores a candidate (I, J) from its contingency counts
	// (A = |C_I|, B = |C_J|); nil is the Jaccard similarity. The
	// threshold applies to it, and Exact reports it.
	Measure func(measures.Counts) float64
	// Budget bounds the packed kernel's bit-column arena (AutoPack
	// declines an arena that does not fit) or the scalar kernel's
	// counter table (it spills to Budget.Dir).
	Budget Budget
	// Workers shards the candidate list: 0 and 1 are serial, negative is
	// GOMAXPROCS, and small lists run with fewer (minShardCandidates).
	Workers int
	// Context cancels the packed kernel at pair-chunk granularity; nil runs to completion. Scans observe the
	// cancellation wrapper on src itself (matrix.WithContext).
	Context context.Context
	// Tick, when non-nil, receives the pass's progress, possibly from
	// worker goroutines: (candidate pairs verified, total candidates)
	// at chunk granularity from the packed kernel; (rows read, total
	// rows) from the scalar kernels' single reader; completion alone
	// when the scalar workers each scan an in-memory source.
	Tick obs.Tick
}

// Verify is phase 3: the one place a kernel and a memory strategy are
// chosen, from the input alone. Whatever is chosen, the result — pairs,
// order, Exact bits — and Stats.Touches are Exact's; the choice reads
// (n, m, cand, budget) and never the source type, so the in-memory,
// streamed and distributed runs of one job verify alike.
//
//   - When AutoPack approves, the word-packed popcount kernel packs
//     every candidate column at once.
//   - Otherwise the scalar kernel counts row by row: dense counters when
//     they fit the budget (or there is none), a bounded table spilling
//     sorted runs when they do not.
func Verify(src matrix.RowSource, cand []pairs.Scored, p Params) ([]pairs.Scored, Stats, error) {
	if err := validate(src.NumCols(), cand, p.Threshold); err != nil {
		return nil, Stats{}, err
	}
	if AutoPack(src.NumRows(), src.NumCols(), cand, p.Budget.Bytes) {
		return packed(src, cand, p)
	}
	return count(src, cand, p, spillFanIn)
}

// minShardCandidates is the smallest candidate shard worth a goroutine;
// below it the scan itself dominates and workers are trimmed.
const minShardCandidates = 32

// shardWorkers resolves a worker count against n candidates: negative
// means GOMAXPROCS, and shards smaller than minShardCandidates are not
// worth a goroutine, so the count is trimmed to what n can feed (at
// least 1).
func shardWorkers(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, (n+minShardCandidates-1)/minShardCandidates))
}

// contiguousShards cuts [0, n) into at most parts equal contiguous
// ranges (the last may be shorter). Work done per range and
// concatenated in range order comes out in serial order.
func contiguousShards(n, parts int) [][2]int {
	chunk := (n + parts - 1) / max(parts, 1)
	var shards [][2]int
	for lo := 0; lo < n; lo += chunk {
		shards = append(shards, [2]int{lo, min(lo+chunk, n)})
	}
	return shards
}

// count is the scalar kernels' one scheduler. The candidate list is cut
// into contiguous shards, one counter each — every candidate's counters
// live with exactly one worker, so the hot path needs no
// synchronisation and a shard's survivors are the bytes the serial pass
// produces for that slice — every counter is fed every row of ONE pass
// (matrix.Broadcast: each worker's own scan of an in-memory source,
// otherwise a single reader), and the survivors concatenate in shard
// order. The counters are dense when they fit the budget; otherwise
// each worker gets an equal share of it for a bounded table and merges
// at most fanIn spilled sections at once.
func count(src matrix.RowSource, cand []pairs.Scored, p Params, fanIn int) ([]pairs.Scored, Stats, error) {
	if len(cand) == 0 {
		return nil, Stats{}, nil
	}
	m := src.NumCols()
	shards := contiguousShards(len(cand), shardWorkers(p.Workers, len(cand)))
	adm := newAdmission(src.NumRows(), p)
	dense := p.Budget.Bytes <= 0 || int64(len(cand))*denseCounterBytes <= p.Budget.Bytes
	maxEntries := max(minSpillEntries, int(p.Budget.Bytes/int64(len(shards))/spillEntryBytes))
	cs := make([]counter, len(shards))
	sinks := make([]matrix.Sink, len(shards))
	for s, sh := range shards {
		var c counter
		if part := cand[sh[0]:sh[1]]; dense {
			c = newExactCounters(m, part, adm)
		} else {
			c = newBudgetWorker(m, part, adm, maxEntries, fanIn, p.Budget.Dir)
		}
		defer c.cleanup()
		cs[s] = c
		sinks[s] = func(row int, cols []int32) error { return c.processRow(int32(row), cols) }
	}

	// A single reader reports its rows; workers that each scan report
	// completion.
	reader := len(sinks) == 1 || !matrix.CanScanConcurrently(src)
	if p.Tick != nil && reader {
		src = &matrix.ProgressSource{Src: src, Tick: p.Tick}
	}
	streamed, err := matrix.Broadcast(src, sinks)
	if err != nil {
		return nil, Stats{}, err
	}
	if p.Tick != nil && !reader {
		p.Tick(int64(len(cand)), int64(len(cand)))
	}

	st := Stats{In: len(cand), Shards: streamed}
	var out []pairs.Scored
	for _, c := range cs {
		part, err := c.finish()
		if err != nil {
			return nil, Stats{}, err
		}
		if out == nil {
			out = part
		} else {
			out = append(out, part...)
		}
		w := c.work()
		st.Touches += w.Touches
		st.SpillRuns += w.SpillRuns
		st.SpillBytes += w.SpillBytes
	}
	st.Out = len(out)
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
