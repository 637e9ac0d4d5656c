// The counting kernels. Row-Sorting and Hash-Count both group columns by
// an equal min-hash value and then, column by column, count how often
// each other column shares a group. The grouping is built once per
// sketch as a read-only Index (one radix sort per signature row, or one
// over all sketch values) that depends on the sketch alone, never on a
// cutoff, so any number of kernels — one per query of a resident sketch
// — count over it at once; the counting is the rangers' unit loop, the
// only count loop in the package. Both algorithms attribute each
// candidate pair to exactly one column (the smaller index for Row-Sort's
// j > i emission, the later column for Hash-Count's
// count-against-earlier scheme), so disjoint column ranges partition
// the candidate set and concatenating range outputs in range order
// reproduces the full scan exactly — pair for pair, estimate bit for
// estimate bit. A column's own runs also hold every pair that contains
// it, whichever column the scan attributes each to: that is the
// per-column access path (column).
package candidate

import (
	"context"
	"fmt"
	"math"

	"assocmine/internal/fold"
	"assocmine/internal/kminhash"
	"assocmine/internal/lsh"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// Index is the half of a kernel that depends on the sketch alone: the
// sketch and, for the counting schemes, the grouping they count over.
// It is read-only once built, so the kernels of concurrent queries
// share it, and it costs 12 bytes a signature cell: what a resident
// sketch keeps beside itself so that a query pays for counting only.
// (M-LSH's is the sketch and, when kept, the sorted buckets of one band
// layout — 12 bytes a band and column.)
//
// sorted lists columns run by run, a run being the columns that share
// one value (within one signature row for MH), ascending inside a run
// because the radix sort is stable. runs is column-major: a column's
// cells (its k signature rows, or its sketch slots) are adjacent, each
// holding its run's bounds in sorted as lo | hi<<32 — or zero when no
// other column shares the value, so the count loop reads one contiguous
// stretch per column and skips most cells without touching anything
// else.
type Index struct {
	algo   fold.Algo
	sk     fold.Sketch
	sorted []int32
	runs   []uint64
	off    []int // K-MH: column i's cells are runs[off[i]:off[i+1]]; MH cells are k to a column

	bands  *lsh.Bands // M-LSH, kept: the kernel holding layout's buckets
	layout Params     // of which R, L and Seed lay the bands out
}

// cols is the number of columns sketched.
func (ix *Index) cols() int {
	if ix.sk.KMH != nil {
		return len(ix.sk.KMH.Sigs)
	}
	return ix.sk.MH.M
}

// cells is column i's stretch of runs.
func (ix *Index) cells(i int) []uint64 {
	if ix.off != nil {
		return ix.runs[ix.off[i]:ix.off[i+1]]
	}
	k := ix.sk.MH.K
	return ix.runs[i*k : (i+1)*k]
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
func (ix *Index) fillRuns(keys []uint64, cols []int32, base int, cell func(col int32) int) {
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

// mhIndex sorts the k signature rows, across workers goroutines, into
// the run index; a cancelled ctx stops the build at row granularity.
func mhIndex(ctx context.Context, _ Params, sk fold.Sketch, workers int, _ bool) (*Index, error) {
	sig := sk.MH
	if sig == nil {
		return nil, fmt.Errorf("candidate: MH kernel needs MH signatures")
	}
	k, m := sig.K, sig.M
	if err := checkCells(k * m); err != nil {
		return nil, err
	}
	ix := &Index{algo: fold.MinHash, sk: fold.Sketch{MH: sig}, sorted: make([]int32, k*m), runs: make([]uint64, k*m)}
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ix, nil
}

// kmhIndex groups every sketch value of every column in one radix sort
// — serially: it is the cheap O(m·k) part — and records with the runs
// each column's cell offsets. A ctx already cancelled builds nothing.
func kmhIndex(ctx context.Context, _ Params, sk fold.Sketch, _ int, _ bool) (*Index, error) {
	s := sk.KMH
	if s == nil {
		return nil, fmt.Errorf("candidate: K-MH kernel needs bottom-k sketches")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := len(s.Sigs)
	off := make([]int, m+1)
	for i, sg := range s.Sigs {
		off[i+1] = off[i] + len(sg)
	}
	n := off[m]
	if err := checkCells(n); err != nil {
		return nil, err
	}
	keys := make([]uint64, 0, n)
	ix := &Index{algo: fold.KMinHash, sk: fold.Sketch{KMH: s}, sorted: make([]int32, 0, n), off: off}
	for i, sg := range s.Sigs {
		for _, v := range sg {
			keys, ix.sorted = append(keys, v), append(ix.sorted, int32(i))
		}
	}
	// The key scratch is the run table afterwards.
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
	return ix, nil
}

// counter is one kernel's private scratch over a shared Index: the
// paper's counter-reuse trick — one O(m) counter array, resetting only
// the entries a column actually touched.
type counter struct {
	ix         *Index
	counts     []int32
	touched    []int32
	increments int64
}

// newCounter allocates the scratch as one block: a column touches at
// most the m-1 others, so touched never outgrows its half.
func newCounter(ix *Index) counter {
	m := ix.cols()
	buf := make([]int32, 2*m)
	return counter{ix: ix, counts: buf[:m:m], touched: buf[m:m]}
}

// count tallies, into counts/touched, the columns sharing a run with
// column i: every other member of each run, or with earlier set only
// the members before i (runs ascend, so that is a prefix).
func (c *counter) count(i int32, earlier bool) {
	sorted, counts := c.ix.sorted, c.counts
	for _, w := range c.ix.cells(int(i)) {
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
	minAgree int
	earlier  bool // Hash-Count attribution: column i counts columns j < i only
}

// newMHRanger builds the Row-Sorting index across workers goroutines —
// the one-time O(k·m) cost RowSortMH pays up front — and a ranger over
// it.
func newMHRanger(ctx context.Context, sig *minhash.Signatures, cutoff float64, earlier bool, workers int) (*mhRanger, error) {
	ix, err := IndexFor(ctx, Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, workers, false)
	if err != nil {
		return nil, err
	}
	return ix.mhRanger(cutoff, earlier)
}

// mhRanger is a Row-Sorting (or Hash-Count attribution) ranger over the
// index, with scratch of its own.
func (ix *Index) mhRanger(cutoff float64, earlier bool) (*mhRanger, error) {
	if cutoff <= 0 || cutoff > 1 {
		return nil, fmt.Errorf("candidate: cutoff must be in (0,1], got %v", cutoff)
	}
	return &mhRanger{counter: newCounter(ix), minAgree: ceilFrac(cutoff, ix.sk.MH.K), earlier: earlier}, nil
}

func (r *mhRanger) units() int { return r.ix.cols() }

func (r *mhRanger) fork() ranger {
	return &mhRanger{counter: newCounter(r.ix), minAgree: r.minAgree, earlier: r.earlier}
}

// span emits the candidates attributed to columns [lo, hi): pairs
// (i, j) with lo <= i < hi and j > i (j < i for a Hash-Count ranger)
// agreeing in at least ceil(cutoff·k) rows, in the full scan's exact
// emission order.
func (r *mhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), false)
	}
	return out, r.increments - before
}

// column emits every candidate containing col: one count over col's
// own runs, both sides of it.
func (r *mhRanger) column(out []pairs.Scored, col int) ([]pairs.Scored, int64) {
	before := r.increments
	return r.unit(out, int32(col), true), r.increments - before
}

// unit counts column i's runs and appends the pairs the scan attributes
// to i or, with whole set, every pair that contains i.
func (r *mhRanger) unit(out []pairs.Scored, i int32, whole bool) []pairs.Scored {
	k := r.ix.sk.MH.K
	r.count(i, r.earlier && !whole)
	for _, j := range r.touched {
		if n := r.counts[j]; int(n) >= r.minAgree && (whole || r.earlier || j > i) {
			out = append(out, pairs.Scored{
				Pair:     pairs.Make(i, j),
				Estimate: float64(n) / float64(k),
			})
		}
		r.counts[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}

// kmhRanger serves any column range of HashCountKMH's emission loop:
// column i counts |SIG_i ∩ SIG_j| against earlier columns j < i, read
// from the ascending prefixes of its sketch values' runs. Concatenating
// span outputs in range order reproduces HashCountKMH exactly.
type kmhRanger struct {
	counter
	opt KMHOptions
	// scan: emit what the biased filter admits, the biased estimate as
	// Estimate — a Search's hits; Step runs the rest of the cascade.
	scan bool
}

// newKMHRanger builds the index and a ranger over it.
func newKMHRanger(s *kminhash.Sketches, opt KMHOptions) (*kmhRanger, error) {
	ix, err := IndexFor(context.Background(), Params{Algo: fold.KMinHash}, fold.Sketch{KMH: s}, 1, false)
	if err != nil {
		return nil, err
	}
	return ix.kmhRanger(opt, false)
}

// kmhRanger is a Hash-Count ranger over the index, with scratch of its
// own.
func (ix *Index) kmhRanger(opt KMHOptions, scan bool) (*kmhRanger, error) {
	if opt.BiasedCutoff <= 0 || opt.BiasedCutoff > 1 {
		return nil, fmt.Errorf("candidate: biased cutoff must be in (0,1], got %v", opt.BiasedCutoff)
	}
	if opt.UnbiasedCutoff < 0 || opt.UnbiasedCutoff > 1 {
		return nil, fmt.Errorf("candidate: unbiased cutoff must be in [0,1], got %v", opt.UnbiasedCutoff)
	}
	return &kmhRanger{counter: newCounter(ix), opt: opt, scan: scan}, nil
}

func (r *kmhRanger) units() int { return r.ix.cols() }

func (r *kmhRanger) fork() ranger {
	return &kmhRanger{counter: newCounter(r.ix), opt: r.opt, scan: r.scan}
}

// span emits the candidates HashCountKMH attributes to columns
// [lo, hi): for each i in the range, pairs (j, i) with j < i surviving
// the biased-then-unbiased cascade, in HashCountKMH's exact emission
// order.
func (r *kmhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), false)
	}
	return out, r.increments - before
}

// column emits every candidate containing col: one count over col's
// own runs, both sides of it, and the cascade on (min, max) — both
// estimators are symmetric.
func (r *kmhRanger) column(out []pairs.Scored, col int) ([]pairs.Scored, int64) {
	before := r.increments
	return r.unit(out, int32(col), true), r.increments - before
}

// unit counts column i's runs against the earlier columns or, with
// whole set, against all of them, and appends the pairs the cascade
// keeps.
func (r *kmhRanger) unit(out []pairs.Scored, i int32, whole bool) []pairs.Scored {
	s := r.ix.sk.KMH
	r.count(i, !whole)
	for _, j := range r.touched {
		p := pairs.Make(j, i)
		if est := s.BiasedEstimateFromCount(int(p.I), int(p.J), int(r.counts[j])); est >= r.opt.BiasedCutoff {
			if r.scan {
				out = append(out, pairs.Scored{Pair: p, Estimate: est})
			} else if unbiased := s.UnbiasedEstimate(int(p.I), int(p.J)); unbiased >= r.opt.UnbiasedCutoff {
				out = append(out, pairs.Scored{Pair: p, Estimate: unbiased})
			}
		}
		r.counts[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}
