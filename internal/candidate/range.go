// The counting kernels. Row-Sorting, M-LSH and Hash-Count all group
// columns by an equal key and then, column by column, count how often
// each other column shares a group. The grouping is built once per
// sketch as a read-only Index (one radix sort per signature row — or
// per band, over its columns' band keys, for M-LSH — or one over all
// sketch values) that depends on the sketch alone, never on a cutoff,
// so any number of kernels — one per query of a resident sketch — count
// over it at once; the counting is counter.count, the only count loop
// in the package, run by the rangers' unit loop or, once for a resident
// K-MH sketch, into the Counts its later scans read. Every algorithm
// attributes each candidate pair to exactly one column, and counts only
// that column's side of each run, so each agreement costs one
// increment: Row-Sort's and M-LSH's column i counts the columns after it
// (the smaller index owns the pair), Hash-Count's the columns before it
// (the later one does). Disjoint column ranges therefore partition the
// candidate set, and concatenating range outputs in range order
// reproduces the full scan exactly — pair for pair, estimate bit for
// estimate bit. A column's own runs also hold every pair that contains
// it, whichever column the scan attributes each to: that is the
// per-column access path (column), which counts both sides.
package candidate

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// Index is the half of a kernel that depends on the sketch alone: the
// sketch and the grouping its scheme counts over. It is read-only once
// built, so the kernels of concurrent queries share it, and it costs
// 12 bytes a signature cell — a band and column for M-LSH: what a
// resident sketch keeps beside itself so that a query pays for counting
// only (or, over a K-MH index's Counts, for filtering only).
//
// sorted lists columns run by run, a run being the columns that share
// one value (within one signature row for MH, one band for M-LSH),
// ascending inside a run because the radix sort is stable. runs is
// column-major: a column's cells (its k signature rows, its L bands, or
// its sketch slots) are adjacent, each holding its run's bounds in
// sorted as lo | hi<<32 — or zero when no other column shares the
// value, so the count loop reads one contiguous stretch per column and
// skips most cells without touching anything else.
type Index struct {
	algo   fold.Algo
	sk     fold.Sketch
	sorted []int32
	runs   []uint64
	rows   int    // MH, M-LSH: column i's cells are runs[i·rows:(i+1)·rows]
	off    []int  // K-MH: column i's cells are runs[off[i]:off[i+1]]
	agree  int64  // Agreements, summed as the runs are filled
	layout Params // M-LSH: of which R, L and Seed lay the bands out
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
	return ix.runs[i*ix.rows : (i+1)*ix.rows]
}

// Agreements is the sum over pairs of columns of the cells they share a
// run in — Σ over runs of s(s−1)/2 — summed as the build fills the runs,
// without counting. For K-MH it is Σ |SIG_i ∩ SIG_j|, a scan's work.
func (ix *Index) Agreements() int64 { return ix.agree }

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
// company. It returns the agreements of those runs.
func (ix *Index) fillRuns(keys []uint64, cols []int32, base int, cell func(col int32) int) (agree int64) {
	start := 0
	for q := 1; q <= len(keys); q++ {
		if q < len(keys) && keys[q] == keys[start] {
			continue
		}
		var w uint64
		if s := int64(q - start); s >= 2 {
			w = uint64(base+start) | uint64(base+q)<<32
			agree += s * (s - 1) / 2
		}
		for _, c := range cols[start:q] {
			if slot := cell(c); w != 0 {
				ix.runs[slot] = w
			}
		}
		start = q
	}
	return agree
}

// mhIndex sorts the k signature rows into the run index; the empty
// sentinel is no value, so an empty column joins no run.
func mhIndex(ctx context.Context, _ Params, sk fold.Sketch, workers int) (*Index, error) {
	sig := sk.MH
	if sig == nil {
		return nil, fmt.Errorf("candidate: MH kernel needs MH signatures")
	}
	m := sig.M
	return rowIndex(ctx, fold.MinHash, sig, sig.K, workers, func() rowKeys {
		return func(l int, keys []uint64, cols []int32) ([]uint64, []int32) {
			for c, v := range sig.Vals[l*m : (l+1)*m] {
				if v != minhash.Empty {
					keys, cols = append(keys, v), append(cols, int32(c))
				}
			}
			return keys, cols
		}
	})
}

// bandIndex is M-LSH's index: band b of p's layout keys each column on
// its values in the band's signature rows (hashing.BandKey, built a row
// at a time, so each row is read in order) and sorts the keys into row b
// of a run index, so a bucket is a run. A column empty in every row of a
// band has no key there and joins no bucket; a key that happens to equal
// minhash.Empty is a key.
func bandIndex(ctx context.Context, p Params, sk fold.Sketch, workers int) (*Index, error) {
	sig := sk.MH
	if sig == nil {
		return nil, fmt.Errorf("candidate: M-LSH kernel needs MH signatures")
	}
	bands, err := layOut(p, sig.K)
	if err != nil {
		return nil, err
	}
	m := sig.M
	ix, err := rowIndex(ctx, fold.MinLSH, sig, p.L, workers, func() rowKeys {
		// acc holds each column's key so far; nz is nonzero once a
		// value of the column was not minhash.Empty.
		acc, nz := make([]hashing.BandKey, m), make([]uint64, m)
		return func(b int, keys []uint64, cols []int32) ([]uint64, []int32) {
			for c := range acc {
				acc[c], nz[c] = hashing.KeyStart, 0
			}
			for _, l := range bands[b] {
				for c, v := range sig.Vals[l*m : (l+1)*m] {
					acc[c] = acc[c].Add(v)
					nz[c] |= v ^ minhash.Empty
				}
			}
			for c, h := range acc {
				if nz[c] != 0 {
					keys, cols = append(keys, h.Sum()), append(cols, int32(c))
				}
			}
			return keys, cols
		}
	})
	if err != nil {
		return nil, err
	}
	ix.layout = p
	return ix, nil
}

// layOut is the band layout of §4.1: band b hashes signature rows
// rows[b]. Disjoint bands of R consecutive rows when the sketch has the
// R·L values they need, else the sampled Q_{r,l,k} layout — each band
// R rows drawn without replacement from the k — drawn at Seed+1 so it
// is independent of the hash functions Seed drew. The layout is a pure
// function of (k, R, L, Seed), so every process derives the same bands.
func layOut(p Params, k int) ([][]int, error) {
	if p.R <= 0 || p.L <= 0 {
		return nil, fmt.Errorf("candidate: band rows and bands must be positive, got R=%d L=%d", p.R, p.L)
	}
	if k < p.R {
		return nil, fmt.Errorf("candidate: bands of %d rows need k >= %d min-hash values, have %d", p.R, p.R, k)
	}
	rows := make([][]int, p.L)
	if k >= p.R*p.L {
		for b := range rows {
			rows[b] = make([]int, p.R)
			for i := range rows[b] {
				rows[b][i] = b*p.R + i
			}
		}
		return rows, nil
	}
	rng := hashing.NewSplitMix64(p.Seed + 1)
	for b := range rows {
		rows[b] = rng.Perm(k)[:p.R]
	}
	return rows, nil
}

// rowKeys appends row l's (key, column) records to keys and cols and
// returns them; each worker of a build gets its own.
type rowKeys func(l int, keys []uint64, cols []int32) ([]uint64, []int32)

// rowIndex sorts rows rows of keys over sig's columns — signature rows
// or bands — across workers goroutines into a run index; a cancelled
// ctx stops the build at row granularity.
func rowIndex(ctx context.Context, algo fold.Algo, sig *minhash.Signatures, rows, workers int, keyer func() rowKeys) (*Index, error) {
	m := sig.M
	if err := checkCells(rows * m); err != nil {
		return nil, err
	}
	ix := &Index{algo: algo, sk: fold.Sketch{MH: sig}, rows: rows, sorted: make([]int32, rows*m), runs: make([]uint64, rows*m)}
	// Rows write disjoint parts of sorted (row l sorts its columns in
	// place in [l·m, (l+1)·m)) and of runs (slot c·rows+l), so they
	// build independently.
	var agree atomic.Int64
	forEachUnit(ctx, rows, workers, func() func(l int) {
		key := keyer()
		keys := make([]uint64, 0, m)
		keyScratch := make([]uint64, m)
		colScratch := make([]int32, m)
		return func(l int) {
			var cols []int32
			keys, cols = key(l, keys[:0], ix.sorted[l*m:l*m:(l+1)*m])
			radix.SortByKey(keys, cols, keyScratch, colScratch)
			agree.Add(ix.fillRuns(keys, cols, l*m, func(c int32) int { return int(c)*rows + l }))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix.agree = agree.Load()
	return ix, nil
}

// kmhIndex groups every sketch value of every column in one radix sort
// — serially: it is the cheap O(m·k) part — and records with the runs
// each column's cell offsets. A ctx already cancelled builds nothing.
func kmhIndex(ctx context.Context, _ Params, sk fold.Sketch, _ int) (*Index, error) {
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
	ix.agree = ix.fillRuns(keys, ix.sorted, 0, func(c int32) int {
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
	pending    []uint64 // count's first pass: the cells whose runs the second counts
	increments int64
}

// newCounter allocates the scratch as one block: a column touches at
// most the m-1 others, so touched never outgrows its half.
func newCounter(ix *Index) counter {
	m := ix.cols()
	buf := make([]int32, 2*m)
	return counter{ix: ix, counts: buf[:m:m], touched: buf[m:m]}
}

// side names the members of column i's runs that count reads: the
// columns after i (the MH scan's attribution), the columns before i
// (the K-MH scan's and Index.Count's), or both (a column's own pairs).
type side uint8

const (
	later side = iota
	earlier
	both
)

// count tallies, into counts/touched, the columns on side s of column i
// in the runs it shares, one increment per member counted. One side
// takes two passes over i's cells. The first loads each run's boundary
// member on that side — the last for later, the first for earlier — and
// keeps the run unless that member is i itself: runs ascend, so the run
// then has nothing on that side. These loads do not depend on one
// another, so their cache misses overlap; a loop that counted each run
// as it reached it waited on each miss in turn. The second pass counts
// the kept runs' side of i. Both sides drop no run, so they skip the
// first pass and count every run as they reach it. Runs are counted in
// cell order and each in run order, so whichever side is counted, its
// columns are touched in the order a count of both sides touches them.
func (c *counter) count(i int32, s side) {
	sorted, counts, cells := c.ix.sorted, c.counts, c.ix.cells(int(i))
	if s != both {
		pending := c.pending[:0]
		for _, w := range cells {
			if w == 0 {
				continue
			}
			at := uint32(w)
			if s == later {
				at = uint32(w>>32) - 1
			}
			if sorted[at] != i {
				pending = append(pending, w)
			}
		}
		c.pending, cells = pending, pending
	}
	for _, w := range cells {
		if w == 0 {
			continue
		}
		run := sorted[uint32(w) : w>>32]
		if s == later { // i is in run, and not last: keep what follows it
			p := len(run) - 1
			for run[p-1] != i {
				p--
			}
			run = run[p:]
		}
		for _, j := range run {
			if j == i { // one side ends at i; a trimmed later run never holds it
				if s != both {
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

// Counts is a K-MH index's earlier-columns count kept whole: for each
// column i, the columns j < i it shares a sketch value with and
// |SIG_i ∩ SIG_j|, in the order counter.count touched them, 8 bytes a
// pair. The count reads no threshold, so one Counts serves the scan of
// every later kernel over its index — pair for pair, Estimate bit for
// Estimate bit, and work (Σ |SIG_i ∩ SIG_j|) as counted — which then
// only filters. A column's both-sides count (Column) still counts.
type Counts struct {
	ix    *Index  // the index counted
	off   []int   // column i's pairs are cells[off[i]:off[i+1]]
	cells []tally // in column order
}

// tally is one counted pair: the earlier column and the count.
type tally struct{ j, n int32 }

// CountsBytes is the bound on the Counts of a K-MH index, checked before
// it is built: 8 bytes for each pair up to min(C(m,2), Agreements()) —
// every pair counted holds at least one agreement — plus the offsets.
func (ix *Index) CountsBytes() int64 {
	m := int64(ix.cols())
	return 8*min(m*(m-1)/2, ix.agree) + 8*(m+1)
}

// Count runs counter.count against the earlier columns of every column
// of a K-MH index once and keeps what it counted. Column i touches at
// most min(i, e_i) earlier columns, e_i being its agreements with them
// (a run's members ascend, so its r-th member has r earlier partners
// there), so each column gets a stretch that long of one allocation of
// Σ min(i, e_i) pairs — within CountsBytes' bound, as Σ e_i is
// Agreements(). Chunks of colChunk columns count into their stretches
// across workers goroutines (negative: GOMAXPROCS), and the stretches
// are then closed up in column order. ctx (nil: Background) is checked
// every chunk; a cancelled count fails with ctx.Err().
func (ix *Index) Count(ctx context.Context, workers int) (*Counts, error) {
	if ix.algo != fold.KMinHash {
		return nil, fmt.Errorf("candidate: only a K-MH index is counted whole")
	}
	ctx, workers = normWorkers(ctx, workers)
	m := ix.cols()
	// off[j+1] sums e_j first, each run read once, at its first member.
	off := make([]int, m+1)
	for i := range m {
		for _, w := range ix.cells(i) {
			if run := ix.sorted[uint32(w) : w>>32]; len(run) > 0 && run[0] == int32(i) {
				for r, j := range run {
					off[j+1] += r
				}
			}
		}
	}
	for i := range m {
		off[i+1] = off[i] + min(i, off[i+1])
	}
	cells, used := make([]tally, off[m]), make([]int32, m)
	forEachUnit(ctx, (m+colChunk-1)/colChunk, workers, func() func(int) {
		c := newCounter(ix)
		return func(u int) {
			for i := u * colChunk; i < min(m, (u+1)*colChunk); i++ {
				c.count(int32(i), earlier)
				for n, j := range c.touched {
					cells[off[i]+n] = tally{j, c.counts[j]}
					c.counts[j] = 0
				}
				used[i] = int32(len(c.touched))
				c.touched = c.touched[:0]
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := 0
	for i := range m {
		lo := off[i]
		off[i] = n
		n += copy(cells[n:], cells[lo:lo+int(used[i])])
	}
	off[m] = n
	return &Counts{ix: ix, off: off, cells: cells[:n]}, nil
}

// Kernel is the counted index's Kernel under p, whose scans read t.
func (t *Counts) Kernel(p Params) (*Kernel, error) { return t.kernel(p, false) }

// Search is the counted index's Search under floor, whose scan reads t.
func (t *Counts) Search(floor Params) (*Kernel, error) { return t.kernel(floor, true) }

func (t *Counts) kernel(p Params, search bool) (*Kernel, error) {
	k, err := t.ix.kernel(p, search)
	if err != nil {
		return nil, err
	}
	k.r.(*kmhRanger).kept = t
	return k, nil
}

// mhRanger serves any column range of the Row-Sorting emission loop
// over a prebuilt MH or M-LSH index: span(a, b) followed by span(b, c)
// emits exactly what one span(a, c) — and therefore what RowSortMH over
// [0, m) — would.
type mhRanger struct {
	counter
	minAgree int
	k        int // the estimate's denominator, n/k; 0 leaves Estimate at 0 (M-LSH)
}

// newMHRanger builds the Row-Sorting index across workers goroutines —
// the one-time O(k·m) cost RowSortMH pays up front — and a ranger over
// it.
func newMHRanger(ctx context.Context, sig *minhash.Signatures, cutoff float64, workers int) (*mhRanger, error) {
	ix, err := IndexFor(ctx, Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, workers)
	if err != nil {
		return nil, err
	}
	return ix.mhRanger(cutoff)
}

// mhRanger is a Row-Sorting ranger over the index, with scratch of its
// own.
func (ix *Index) mhRanger(cutoff float64) (*mhRanger, error) {
	if cutoff <= 0 || cutoff > 1 {
		return nil, fmt.Errorf("candidate: cutoff must be in (0,1], got %v", cutoff)
	}
	k := ix.sk.MH.K
	return &mhRanger{counter: newCounter(ix), minAgree: ceilFrac(cutoff, k), k: k}, nil
}

// mlshRanger is M-LSH's ranger over an index of p's band layout:
// Row-Sorting over the bands at a floor of one agreement — a pair is a
// candidate when its keys agree in one band — with no estimate. Its
// work, Σ C(s, 2) over every band's buckets for a scan, is the bucket
// pairs the banding walks.
func (ix *Index) mlshRanger(p Params) (*mhRanger, error) {
	if !ix.Serves(p) {
		return nil, fmt.Errorf("candidate: index of bands R=%d L=%d seed %d cannot serve R=%d L=%d seed %d",
			ix.layout.R, ix.layout.L, ix.layout.Seed, p.R, p.L, p.Seed)
	}
	return &mhRanger{counter: newCounter(ix), minAgree: 1}, nil
}

func (r *mhRanger) units() int { return r.ix.cols() }

func (r *mhRanger) fork() ranger {
	return &mhRanger{counter: newCounter(r.ix), minAgree: r.minAgree, k: r.k}
}

// span emits the candidates attributed to columns [lo, hi): pairs
// (i, j) with lo <= i < hi and j > i agreeing in at least minAgree rows,
// in the full scan's exact emission order.
func (r *mhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), later)
	}
	return out, r.increments - before
}

// column emits every candidate containing col: one count over col's
// own runs, both sides of it.
func (r *mhRanger) column(out []pairs.Scored, col int) ([]pairs.Scored, int64) {
	before := r.increments
	return r.unit(out, int32(col), both), r.increments - before
}

// unit counts side s of column i's runs and appends the pairs among
// them that agree in at least minAgree rows.
func (r *mhRanger) unit(out []pairs.Scored, i int32, s side) []pairs.Scored {
	r.count(i, s)
	for _, j := range r.touched {
		if n := r.counts[j]; int(n) >= r.minAgree {
			p := pairs.Scored{Pair: pairs.Make(i, j)}
			if r.k > 0 {
				p.Estimate = float64(n) / float64(r.k)
			}
			out = append(out, p)
		}
		r.counts[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}

// Band appends to dst, in (I, J) order, the pairs of an M-LSH index
// that share a bucket in band b and in no earlier band — band b's fresh
// pairs, the band-at-a-time online mode's unit — and returns with them
// the band's bucket pairs, fresh or not: Σ C(s, 2) over its buckets.
// Column i contributes the later members of its bucket, as the scan's
// attribution does; a pair met in an earlier band has equal nonzero
// cells there (the same run), so no set of seen pairs is kept.
func (ix *Index) Band(dst []pairs.Scored, b int) ([]pairs.Scored, int64, error) {
	if ix.algo != fold.MinLSH || b < 0 || b >= ix.rows {
		return dst, 0, fmt.Errorf("candidate: band %d is not a band of this index", b)
	}
	var work int64
	for i := range ix.cols() {
		w := ix.runs[i*ix.rows+b]
		if w == 0 {
			continue
		}
		run := ix.sorted[uint32(w) : w>>32]
		p, _ := slices.BinarySearch(run, int32(i))
		earlierI := ix.runs[i*ix.rows : i*ix.rows+b]
		for _, j := range run[p+1:] {
			work++
			if !shareRun(earlierI, ix.runs[int(j)*ix.rows:int(j)*ix.rows+b]) {
				dst = append(dst, pairs.Scored{Pair: pairs.Pair{I: int32(i), J: j}})
			}
		}
	}
	return dst, work, nil
}

// shareRun reports whether two columns' cells name one run somewhere.
func shareRun(a, b []uint64) bool {
	for x, w := range a {
		if w != 0 && w == b[x] {
			return true
		}
	}
	return false
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
	kept *Counts // the index's, read by a scan instead of counting (nil: it counts)
}

// newKMHRanger builds the index and a ranger over it.
func newKMHRanger(s *kminhash.Sketches, opt KMHOptions) (*kmhRanger, error) {
	ix, err := IndexFor(context.Background(), Params{Algo: fold.KMinHash}, fold.Sketch{KMH: s}, 1)
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
	return &kmhRanger{counter: newCounter(r.ix), opt: r.opt, scan: r.scan, kept: r.kept}
}

// span emits the candidates HashCountKMH attributes to columns
// [lo, hi): for each i in the range, pairs (j, i) with j < i surviving
// the biased-then-unbiased cascade, in HashCountKMH's exact emission
// order.
func (r *kmhRanger) span(out []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	before := r.increments
	for i := lo; i < hi; i++ {
		out = r.unit(out, int32(i), earlier)
	}
	return out, r.increments - before
}

// column emits every candidate containing col: one count over col's
// own runs, both sides of it, and the cascade on (min, max) — both
// estimators are symmetric.
func (r *kmhRanger) column(out []pairs.Scored, col int) ([]pairs.Scored, int64) {
	before := r.increments
	return r.unit(out, int32(col), both), r.increments - before
}

// unit counts side s of column i's runs — or reads the earlier side off
// the kept Counts — and appends the pairs the cascade keeps.
func (r *kmhRanger) unit(out []pairs.Scored, i int32, s side) []pairs.Scored {
	if t := r.kept; t != nil && s == earlier {
		for _, c := range t.cells[t.off[i]:t.off[i+1]] {
			r.counts[c.j] = c.n
			r.touched = append(r.touched, c.j)
			r.increments += int64(c.n)
		}
	} else {
		r.count(i, s)
	}
	sk := r.ix.sk.KMH
	for _, j := range r.touched {
		p := pairs.Make(j, i)
		if est := sk.BiasedEstimateFromCount(int(p.I), int(p.J), int(r.counts[j])); est >= r.opt.BiasedCutoff {
			if r.scan {
				out = append(out, pairs.Scored{Pair: p, Estimate: est})
			} else if unbiased := sk.UnbiasedEstimate(int(p.I), int(p.J)); unbiased >= r.opt.UnbiasedCutoff {
				out = append(out, pairs.Scored{Pair: p, Estimate: unbiased})
			}
		}
		r.counts[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}
