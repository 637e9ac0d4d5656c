// Packed verification: the same exact pruning pass as Exact, computed
// over column containers instead of per-row counter scatter. Each column
// referenced by the candidate list — typically a small fraction of the
// matrix — is held as its sorted row list when it has fewer than T ones
// (listBelow) and as a ⌈n/64⌉-word bitmap otherwise, so a sparse column
// costs its ones, not its rows. A candidate's |C_i ∩ C_j| is a merge of
// two lists, a bit probe per row of a list into a bitmap, or one AND
// popcount sweep of two bitmaps (bitset.AndCountWords); |C_i ∪ C_j| is
// |C_i| + |C_j| − |C_i ∩ C_j| from the per-column counts taken once per
// batch. The counts are the same integers the scalar counters
// accumulate, divided by the same float64 division, and candidates are
// emitted in the same order, so results are bit-identical to Exact for
// any batch size, worker count or data-delivery strategy.
//
// Memory is bounded by batching: when a Budget is set, candidates are
// split into contiguous batches whose distinct endpoint columns fit the
// budget as bitmaps — a list is never larger than a bitmap — with one
// packing pass per batch. When even two columns do not fit, Verify falls
// back to the scalar kernel wholesale — the spilling table is the
// bounded-memory strategy of last resort.
package verify

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"assocmine/internal/bitset"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// Kernel selects the counting strategy of the exact pruning pass.
type Kernel int

const (
	// KernelAuto picks the packed kernel when autoPack approves the
	// workload, the scalar kernel otherwise. The zero value, so packed
	// verification is the default wherever it is safe.
	KernelAuto Kernel = iota
	// KernelPacked forces the word-packed popcount kernel (batching
	// against any budget).
	KernelPacked
	// KernelScalar forces the per-row counter-scatter kernel.
	KernelScalar
)

// String returns the flag spelling of the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelPacked:
		return "packed"
	case KernelScalar:
		return "scalar"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel converts a flag spelling into a Kernel; the empty string
// means auto.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "packed":
		return KernelPacked, nil
	case "scalar":
		return KernelScalar, nil
	default:
		return 0, fmt.Errorf("verify: unknown kernel %q (want auto, packed or scalar)", s)
	}
}

const (
	// minPackedCandidates is the smallest candidate list worth an arena:
	// below it the packing pass dominates the popcount savings.
	minPackedCandidates = 16
	// maxAutoArenaBytes caps the arena Auto will build when no budget
	// constrains it; explicit KernelPacked has no cap (it batches).
	maxAutoArenaBytes = 256 << 20
	// packedTickChunk is the pair-loop granularity of context checks and
	// progress ticks.
	packedTickChunk = 256
	// listShare sets T = words/listShare, the ones below which a column
	// is kept as its row list (DESIGN.md, "Phase 3's containers"): a
	// list∩list merge of at most 2T steps then costs no more than one
	// AND over the words, and a list takes at most 1/16 of a bitmap's
	// bytes.
	listShare = 8
)

// listBelow is T for columns of the given number of words: a column is
// a row list while it has fewer ones, a bitmap from then on.
func listBelow(words int) int { return words / listShare }

// autoPack reports whether the Auto kernel selects the packed pass for
// verifying cand over an n×m source under budgetBytes (<= 0 means
// unlimited). It is a function of (n, m, cand, budgetBytes) only —
// never the source type — so the in-memory and streamed runs of one
// job always select the same kernel and stay bit-identical. Under a
// budget Auto requires the whole arena to fit: a budget is a request
// for the bounded-memory machinery, and a packed pass that fits needs
// none, while one that would batch should instead leave the budget to
// the spilling scalar path it was written for.
func autoPack(n, m int, cand []pairs.Scored, budgetBytes int64) bool {
	if len(cand) < minPackedCandidates || n <= 0 || m <= 0 {
		return false
	}
	words := int64((n + 63) / 64)
	seen := make([]bool, m)
	distinct := int64(0)
	for _, p := range cand {
		if int(p.I) < m && p.I >= 0 && !seen[p.I] {
			seen[p.I] = true
			distinct++
		}
		if int(p.J) < m && p.J >= 0 && !seen[p.J] {
			seen[p.J] = true
			distinct++
		}
	}
	arena := distinct * words * 8
	if budgetBytes > 0 {
		return arena <= budgetBytes
	}
	return arena <= maxAutoArenaBytes
}

// PackedOptions parameterises ExactPacked.
type PackedOptions struct {
	// Budget bounds the bit-column arena in bytes; Bytes <= 0 means
	// unlimited (a single batch). Dir is only used by the ExactBudgeted
	// fallback when even two packed columns exceed the budget.
	Budget Budget
	// Workers fans out the per-batch pair sweep; <= 1 runs serial,
	// negative means GOMAXPROCS.
	Workers int
	// Context cancels the pass at batch and pair-chunk granularity; nil
	// runs to completion. Scans additionally observe any cancellation
	// wrapper on src itself.
	Context context.Context
	// Tick, when non-nil, receives (candidate pairs verified, total
	// candidates) at chunk granularity, possibly from worker goroutines.
	Tick obs.Tick
}

// ExactPacked forces Verify's packed kernel (batched against
// opt.Budget; the scalar kernel when the budget cannot hold two
// columns).
func ExactPacked(src matrix.RowSource, cand []pairs.Scored, threshold float64, opt PackedOptions) ([]pairs.Scored, Stats, error) {
	return Verify(src, cand, Params{
		Threshold: threshold, Kernel: KernelPacked,
		Budget: opt.Budget, Workers: opt.Workers, Context: opt.Context, Tick: opt.Tick,
	})
}

// arenaCols is the number of src's bit-columns the budget holds at
// once: all of them when it is unlimited. A batch of that many columns
// fits the budget whatever mix of lists and bitmaps it holds.
func arenaCols(src matrix.RowSource, budget Budget) int {
	words := int64(src.NumRows()+63) / 64
	if budget.Bytes <= 0 || words == 0 {
		return src.NumCols()
	}
	return int(min(int64(src.NumCols()), budget.Bytes/(words*8)))
}

// packed is the container kernel over cand (already validated), at
// most maxCols >= 2 distinct columns to a batch: PackedWords/
// PackedBatches report its work. Sources implementing
// matrix.ColumnLister lend their column lists without a row scan; other
// sources pay one sequential scan per batch, by a single reader at any
// worker count (columns.fill).
func packed(src matrix.RowSource, cand []pairs.Scored, p Params, maxCols int) ([]pairs.Scored, Stats, error) {
	m := src.NumCols()
	ctx := p.Context
	if ctx == nil {
		ctx = context.Background()
	}
	st := Stats{In: len(cand)}
	if len(cand) == 0 {
		return nil, st, nil
	}
	workers := p.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := int64(len(cand))
	words := (src.NumRows() + 63) / 64
	if words == 0 {
		// No rows: every union is empty and the scalar pass emits
		// nothing, without scanning.
		if p.Tick != nil {
			p.Tick(total, total)
		}
		return make([]pairs.Scored, 0), st, nil
	}

	adm := newAdmission(src.NumRows(), p)
	slot := make([]int32, m)
	for i := range slot {
		slot[i] = -1
	}
	var cols []int32
	cs := columns{words: words}
	out := make([]pairs.Scored, 0, len(cand)/4)
	var done atomic.Int64

	for batchStart := 0; batchStart < len(cand); {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		// Greedy contiguous batch: maxCols >= 2 guarantees progress,
		// since one candidate claims at most two slots.
		cols = cols[:0]
		batchEnd := batchStart
		for ; batchEnd < len(cand); batchEnd++ {
			c := cand[batchEnd]
			need := 0
			if slot[c.I] < 0 {
				need++
			}
			if slot[c.J] < 0 {
				need++
			}
			if len(cols)+need > maxCols {
				break
			}
			if slot[c.I] < 0 {
				slot[c.I] = int32(len(cols))
				cols = append(cols, c.I)
			}
			if slot[c.J] < 0 {
				slot[c.J] = int32(len(cols))
				cols = append(cols, c.J)
			}
		}
		if err := cs.fill(src, slot, cols); err != nil {
			return nil, Stats{}, err
		}

		// Contiguous shards, concatenated in order: the serial sweep's
		// emission order at any worker count.
		batch := cand[batchStart:batchEnd]
		shards := contiguousShards(len(batch), shardWorkers(workers, len(batch)))
		outs := make([][]pairs.Scored, len(shards))
		work := make([]Stats, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for s, sh := range shards {
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				outs[s], work[s], errs[s] = packedSweep(ctx, batch[lo:hi], &cs, slot, adm, &done, total, p.Tick)
			}(s, sh[0], sh[1])
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				return nil, Stats{}, err
			}
			st.Touches += work[s].Touches
			st.PackedWords += work[s].PackedWords
			out = append(out, outs[s]...)
		}
		st.PackedBatches++
		for _, c := range cols {
			slot[c] = -1
		}
		batchStart = batchEnd
	}
	st.Out = len(out)
	if p.Tick != nil {
		p.Tick(total, total)
	}
	return out, st, nil
}

// packedSweep verifies one contiguous candidate slice against the
// batch's columns, emitting survivors in order, and reports the slice's
// Touches and PackedWords. done/tick report progress in candidate pairs
// across the whole call (done is shared by all sweeps); ctx is checked
// every packedTickChunk pairs.
func packedSweep(ctx context.Context, batch []pairs.Scored, cs *columns, slot []int32, adm admission, done *atomic.Int64, total int64, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	out := make([]pairs.Scored, 0, len(batch)/4)
	var work Stats
	for idx, p := range batch {
		si, sj := slot[p.I], slot[p.J]
		and := cs.and(si, sj, &work.PackedWords)
		a, b := cs.ones[si], cs.ones[sj]
		work.Touches += a + b
		if s, ok := adm.admit(a, b, and, a+b-and); ok {
			p.Exact = s
			out = append(out, p)
		}
		if (idx+1)%packedTickChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, Stats{}, err
			}
			if tick != nil {
				tick(done.Add(packedTickChunk), total)
			}
		}
	}
	done.Add(int64(len(batch) % packedTickChunk))
	return out, work, nil
}

// columns holds one batch's candidate columns by slot: slot s is the
// sorted row list list[s] while the column has fewer than listBelow
// ones, the bitmap bits[s] of words uint64s otherwise, and ones[s] is
// its count of ones either way. Which container a column gets depends
// on its ones alone, never on how the source delivers them.
type columns struct {
	words int
	list  [][]int32
	bits  [][]uint64
	ones  []int64
	slab  []uint64 // the bitmaps, in the order handed out; slab[len:cap] is zero
	rows  []int32  // a scan's lists, T rows a slot
}

// fill loads the columns of cols into slots 0..len(cols)-1 (slot maps
// each back). A source with direct column lists (matrix.ColumnLister —
// in-memory data) lends its lists without a copy and without a row
// scan, and only its dense columns are copied into bitmaps, from a slab
// sized for exactly them. Every other source is read by one sequential
// reader, the one pass the disk-resident setting allows, at any worker
// count: a column's rows are appended to its list, a window of T rows in
// one array for all of them, until it reaches T, then go to a bitmap.
// Which columns will reach T is known only when that scan ends, so it
// reserves a bitmap for every column — the arena the all-bitmap kernel
// allocated; allocating bitmaps and lists as they grow raised the peak
// RSS of a streamed run instead (DESIGN.md, "Phase 3's containers").
// The pass is decode-bound, and fanning its rows out to
// slot-range workers measured slower than the single reader
// (docs/ALGORITHMS.md, "Out-of-core execution").
func (cs *columns) fill(src matrix.RowSource, slot []int32, cols []int32) error {
	n := len(cols)
	cs.list = append(cs.list[:0], make([][]int32, n)...)
	cs.bits = append(cs.bits[:0], make([][]uint64, n)...)
	cs.ones = append(cs.ones[:0], make([]int64, n)...)
	t := listBelow(cs.words)
	cl, lends := src.(matrix.ColumnLister)
	reserve := n
	if lends {
		reserve = 0
		for s, c := range cols {
			if cs.list[s] = cl.ColumnRows(int(c)); len(cs.list[s]) >= t {
				reserve++
			}
		}
	}
	if cap(cs.slab) < reserve*cs.words {
		cs.slab = make([]uint64, 0, reserve*cs.words)
	} else {
		clear(cs.slab) // the previous batch's bitmaps
		cs.slab = cs.slab[:0]
	}
	if !lends {
		if len(cs.rows) < n*t {
			cs.rows = make([]int32, n*t)
		}
		for s := range cs.list {
			cs.list[s] = cs.rows[s*t : s*t : (s+1)*t]
		}
		err := src.Scan(func(row int, rcols []int32) error {
			for _, c := range rcols {
				s := slot[c]
				if s < 0 {
					continue
				}
				if b := cs.bits[s]; b != nil {
					b[row>>6] |= 1 << (uint(row) & 63)
				} else if cs.list[s] = append(cs.list[s], int32(row)); len(cs.list[s]) >= t {
					cs.toBitmap(int(s))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for s, l := range cs.list {
		if cs.bits[s] == nil && len(l) >= t {
			cs.toBitmap(s)
		}
		if b := cs.bits[s]; b != nil {
			cs.ones[s] = int64(bitset.CountWords(b))
		} else {
			cs.ones[s] = int64(len(cs.list[s]))
		}
	}
	return nil
}

// toBitmap moves slot s from its row list to the slab's next bitmap.
func (cs *columns) toBitmap(s int) {
	n := len(cs.slab)
	cs.slab = cs.slab[:n+cs.words]
	b := cs.slab[n:]
	for _, r := range cs.list[s] {
		b[r>>6] |= 1 << (uint(r) & 63)
	}
	cs.bits[s], cs.list[s] = b, nil
}

// and returns |C_a ∩ C_b| of slots a and b: one AND popcount sweep when
// both are bitmaps (adding its words to *words), a bit probe per row of
// a list into a bitmap, or a merge of two lists.
func (cs *columns) and(a, b int32, words *int64) int64 {
	ba, bb := cs.bits[a], cs.bits[b]
	switch {
	case ba != nil && bb != nil:
		*words += int64(len(ba))
		return int64(bitset.AndCountWords(ba, bb))
	case ba != nil:
		return probe(cs.list[b], ba)
	case bb != nil:
		return probe(cs.list[a], bb)
	}
	return merge(cs.list[a], cs.list[b])
}

// probe counts the rows of list set in bits.
func probe(list []int32, bits []uint64) int64 {
	var n int64
	for _, r := range list {
		n += int64(bits[r>>6] >> (uint(r) & 63) & 1)
	}
	return n
}

// merge counts the rows two sorted lists share.
func merge(a, b []int32) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x, y := a[i], b[j]
		if x == y {
			n++
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return n
}
