// The counting kernels. Row-Sorting and Hash-Count both group columns by
// an equal min-hash value and then, column by column, count how often
// each other column shares a group. The grouping is built once as a
// read-only runIndex (one radix sort per signature row, or one over all
// sketch values) that depends on the sketch alone, never on a cutoff;
// the counting is the rangers' span loop, the only count loop in the
// package. Both algorithms attribute each candidate pair to exactly one
// column (the smaller index for Row-Sort's j > i emission, the later
// column for Hash-Count's count-against-earlier scheme), so disjoint
// column ranges partition the candidate set and concatenating range
// outputs in range order reproduces the full scan exactly — pair for
// pair, estimate bit for estimate bit.
package candidate

import (
	"context"
	"fmt"
	"math"

	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// runIndex is the grouping both algorithms count over. sorted lists
// columns run by run, a run being the columns that share one value
// (within one signature row for MH), ascending inside a run because the
// radix sort is stable. runs is column-major: a column's cells (its k
// signature rows, or its sketch slots) are adjacent, each holding its
// run's bounds in sorted as lo | hi<<32 — or zero when no other column
// shares the value, so the count loop reads one contiguous stretch per
// column and skips most cells without touching anything else.
type runIndex struct {
	sorted []int32
	runs   []uint64
}

// checkCells rejects inputs whose cell count does not fit the 32-bit
// run bounds.
func checkCells(n int) error {
	if n > math.MaxUint32 {
		return fmt.Errorf("candidate: %d signature cells exceed the index limit of %d", n, uint32(math.MaxUint32))
	}
	return nil
}

// fillRuns walks keys (sorted, cols carried along) run by run, cols
// being sorted[base : base+len(keys)]. cell names the runs slot of each
// record in turn; the slot gets the run's bounds when the run has
// company.
func (ix runIndex) fillRuns(keys []uint64, cols []int32, base int, cell func(col int32) int) {
	start := 0
	for q := 1; q <= len(keys); q++ {
		if q < len(keys) && keys[q] == keys[start] {
			continue
		}
		var w uint64
		if q-start >= 2 {
			w = uint64(base+start) | uint64(base+q)<<32
		}
		for _, c := range cols[start:q] {
			if slot := cell(c); w != 0 {
				ix.runs[slot] = w
			}
		}
		start = q
	}
}

// counter is one worker's private scratch over a shared runIndex: the
// paper's counter-reuse trick — one O(m) counter array, resetting only
// the entries a column actually touched.
type counter struct {
	ix         runIndex
	counts     []int32
	touched    []int32
	increments int64
}

func newCounter(ix runIndex, m int) counter {
	return counter{ix: ix, counts: make([]int32, m), touched: make([]int32, 0, 256)}
}

// count tallies, into counts/touched, the columns sharing a run with
// column i over the given cells: every other member of each run, or
// with earlier set only the members before i (runs ascend, so that is
// a prefix).
func (c *counter) count(cells []uint64, i int32, earlier bool) {
	sorted, counts := c.ix.sorted, c.counts
	for _, w := range cells {
		if w == 0 {
			continue
		}
		for _, j := range sorted[uint32(w) : w>>32] {
			if j == i {
				if earlier {
					break
				}
				continue
			}
			if counts[j] == 0 {
				c.touched = append(c.touched, j)
			}
			counts[j]++
			c.increments++
		}
	}
}

// mhRanger serves any column range of the MH generators' emission loop
// over a prebuilt index: span(a, b) followed by span(b, c) emits exactly
// what one span(a, c) — and therefore what RowSortMH over [0, m) —
// would.
type mhRanger struct {
	counter
	k, m     int
	minAgree int
	earlier  bool // Hash-Count attribution: column i counts columns j < i only
}

// newMHRanger validates cutoff and builds the Row-Sorting index across
// workers goroutines, the one-time O(k·m) cost RowSortMH pays up front.
func newMHRanger(ctx context.Context, sig *minhash.Signatures, cutoff float64, earlier bool, workers int) (*mhRanger, error) {
	if cutoff <= 0 || cutoff > 1 {
		return nil, fmt.Errorf("candidate: cutoff must be in (0,1], got %v", cutoff)
	}
	ix, err := mhIndex(ctx, sig, workers)
	if err != nil {
		return nil, err
	}
	return &mhRanger{counter: newCounter(ix, sig.M), k: sig.K, m: sig.M, minAgree: ceilFrac(cutoff, sig.K), earlier: earlier}, nil
}

// mhIndex sorts the k signature rows, across workers goroutines, into
// the run index; a cancelled ctx stops the build at row granularity.
func mhIndex(ctx context.Context, sig *minhash.Signatures, workers int) (runIndex, error) {
	k, m := sig.K, sig.M
	if err := checkCells(k * m); err != nil {
		return runIndex{}, err
	}
	ix := runIndex{sorted: make([]int32, k*m), runs: make([]uint64, k*m)}
	// Rows write disjoint parts of sorted (row l sorts its columns in
	// place in [l·m, (l+1)·m)) and of runs (slot c·k+l), so they build
	// independently.
	forEachUnit(ctx, k, workers, func() func(l int) {
		keys := make([]uint64, 0, m)
		keyScratch := make([]uint64, m)
		colScratch := make([]int32, m)
		return func(l int) {
			keys = keys[:0]
			cols := ix.sorted[l*m : l*m : (l+1)*m]
			for c, v := range sig.Vals[l*m : (l+1)*m] {
				if v != minhash.Empty { // the empty sentinel is not a match
					keys, cols = append(keys, v), append(cols, int32(c))
				}
			}
			radix.SortByKey(keys, cols, keyScratch, colScratch)
			ix.fillRuns(keys, cols, l*m, func(c int32) int { return int(c)*k + l })
		}
	})
	return ix, ctx.Err()
}

func (r *mhRanger) units() int { return r.m }

func (r *mhRanger) fork() ranger {
	return &mhRanger{counter: newCounter(r.ix, r.m), k: r.k, m: r.m, minAgree: r.minAgree, earlier: r.earlier}
}

// span emits the candidates attributed to columns [lo, hi): pairs
// (i, j) with lo <= i < hi and j > i (j < i for a Hash-Count ranger)
// agreeing in at least ceil(cutoff·k) rows, in the full scan's exact
// emission order.
func (r *mhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	k, before := r.k, r.increments
	for i := lo; i < hi; i++ {
		ii := int32(i)
		r.count(r.ix.runs[i*k:(i+1)*k], ii, r.earlier)
		for _, j := range r.touched {
			if n := r.counts[j]; int(n) >= r.minAgree && (r.earlier || j > ii) {
				out = append(out, pairs.Scored{
					Pair:     pairs.Make(ii, j),
					Estimate: float64(n) / float64(k),
				})
			}
			r.counts[j] = 0
		}
		r.touched = r.touched[:0]
	}
	return out, r.increments - before
}

// kmhRanger serves any column range of HashCountKMH's emission loop:
// column i counts |SIG_i ∩ SIG_j| against earlier columns j < i, read
// from the ascending prefixes of its sketch values' runs. Concatenating
// span outputs in range order reproduces HashCountKMH exactly.
type kmhRanger struct {
	counter
	s   *kminhash.Sketches
	opt KMHOptions
	off []int // column i's cells are runs[off[i]:off[i+1]], one per sketch slot
}

// newKMHRanger validates the cutoffs and builds the index.
func newKMHRanger(s *kminhash.Sketches, opt KMHOptions) (*kmhRanger, error) {
	if opt.BiasedCutoff <= 0 || opt.BiasedCutoff > 1 {
		return nil, fmt.Errorf("candidate: biased cutoff must be in (0,1], got %v", opt.BiasedCutoff)
	}
	if opt.UnbiasedCutoff < 0 || opt.UnbiasedCutoff > 1 {
		return nil, fmt.Errorf("candidate: unbiased cutoff must be in [0,1], got %v", opt.UnbiasedCutoff)
	}
	ix, off, err := kmhIndex(s)
	if err != nil {
		return nil, err
	}
	return &kmhRanger{counter: newCounter(ix, len(s.Sigs)), s: s, opt: opt, off: off}, nil
}

// kmhIndex groups every sketch value of every column in one radix sort
// — serially: it is the cheap O(m·k) part — and returns with the run
// index each column's cell offsets.
func kmhIndex(s *kminhash.Sketches) (runIndex, []int, error) {
	m := len(s.Sigs)
	off := make([]int, m+1)
	for i, sg := range s.Sigs {
		off[i+1] = off[i] + len(sg)
	}
	n := off[m]
	if err := checkCells(n); err != nil {
		return runIndex{}, nil, err
	}
	keys := make([]uint64, 0, n)
	ix := runIndex{sorted: make([]int32, 0, n)}
	for i, sg := range s.Sigs {
		for _, v := range sg {
			keys, ix.sorted = append(keys, v), append(ix.sorted, int32(i))
		}
	}
	// The key scratch is the run table afterwards: at 8 bytes a cell it
	// is a third of what the build allocates, on every resident-sketch
	// query of the service.
	ix.runs = make([]uint64, n)
	radix.SortByKey(keys, ix.sorted, ix.runs, make([]int32, n))
	clear(ix.runs)
	// A sketch ascends and so do the runs, so a column meets its values
	// in slot order: its next free cell is the one this record belongs to.
	next := append([]int(nil), off[:m]...)
	ix.fillRuns(keys, ix.sorted, 0, func(c int32) int {
		next[c]++
		return next[c] - 1
	})
	return ix, off, nil
}

func (r *kmhRanger) units() int { return len(r.s.Sigs) }

func (r *kmhRanger) fork() ranger {
	return &kmhRanger{counter: newCounter(r.ix, len(r.s.Sigs)), s: r.s, opt: r.opt, off: r.off}
}

// span emits the candidates HashCountKMH attributes to columns
// [lo, hi): for each i in the range, pairs (j, i) with j < i surviving
// the biased-then-unbiased cascade, in HashCountKMH's exact emission
// order.
func (r *kmhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		ii := int32(i)
		r.count(r.ix.runs[r.off[i]:r.off[i+1]], ii, true)
		for _, j := range r.touched {
			if est := r.s.BiasedEstimateFromCount(int(j), i, int(r.counts[j])); est >= r.opt.BiasedCutoff {
				unbiased := r.s.UnbiasedEstimate(int(j), i)
				if unbiased >= r.opt.UnbiasedCutoff {
					out = append(out, pairs.Scored{
						Pair:     pairs.Make(j, ii),
						Estimate: unbiased,
					})
				}
			}
			r.counts[j] = 0
		}
		r.touched = r.touched[:0]
	}
	return out, r.increments - before
}
