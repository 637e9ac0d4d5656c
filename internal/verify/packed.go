// Packed verification: the same exact pruning pass as Exact, computed
// over column containers instead of per-row counter scatter. Each column
// referenced by the candidate list — typically a small fraction of the
// matrix — is held as its sorted row list when it has fewer than T ones
// (listBelow) and as a bitmap otherwise, so a sparse column costs its
// ones, not its rows. A candidate's |C_i ∩ C_j| is a merge of two lists,
// a bit probe per row of a list into a bitmap, or one AND popcount sweep
// of two bitmaps (bitset.AndCountWords); |C_i ∪ C_j| is
// |C_i| + |C_j| − |C_i ∩ C_j| from the per-column counts taken once.
// A pair's two columns always lie in one connected component of
// the candidate graph, so a component holding a bitmap numbers its rows
// by their rank in U, the union of its columns' rows: its bitmaps take
// ⌈|U|/64⌉ words, not ⌈n/64⌉, and a rank preserves every intersection.
// The counts are the same integers the scalar counters accumulate,
// divided by the same float64 division, and candidates are emitted in
// the same order, so results are bit-identical to Exact for any worker
// count or data-delivery strategy.
//
// All the candidate columns are packed at once, in one pass: Verify
// runs this kernel only when AutoPack finds that their bitmaps fit the
// budget — a list is never larger than a bitmap — and leaves a budget
// they do not fit to the scalar kernel's spilling table.
package verify

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"assocmine/internal/bitset"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

const (
	// minPackedCandidates is the smallest candidate list worth an arena:
	// below it the packing pass dominates the popcount savings.
	minPackedCandidates = 16
	// maxAutoArenaBytes caps the arena AutoPack approves when no budget
	// constrains it.
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

// AutoPack reports whether Verify selects the packed pass for verifying
// cand over an n×m source under budgetBytes (<= 0 means unlimited). It
// is a function of (n, m, cand, budgetBytes) only — never the source
// type — so the in-memory and streamed runs of one job always select
// the same kernel and stay bit-identical. Under a budget the whole
// arena must fit: a packed pass that fits needs no bounded-memory
// machinery, and one that does not leaves the budget to the spilling
// scalar path.
func AutoPack(n, m int, cand []pairs.Scored, budgetBytes int64) bool {
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
	// Workers fans out the pair sweep; <= 1 runs serial, negative means
	// GOMAXPROCS.
	Workers int
}

// ExactPacked runs Verify's packed kernel whatever AutoPack would
// choose, with no memory bound.
func ExactPacked(src matrix.RowSource, cand []pairs.Scored, threshold float64, opt PackedOptions) ([]pairs.Scored, Stats, error) {
	if err := validate(src.NumCols(), cand, threshold); err != nil {
		return nil, Stats{}, err
	}
	return packed(src, cand, Params{Threshold: threshold, Workers: opt.Workers})
}

// packed is the container kernel over cand (already validated), every
// candidate column loaded in one batch: PackedWords/PackedBatches
// report its work. Sources implementing matrix.ColumnLister lend their
// column lists without a row scan; other sources pay one sequential
// scan, by a single reader at any worker count (columns.fill).
func packed(src matrix.RowSource, cand []pairs.Scored, p Params) ([]pairs.Scored, Stats, error) {
	ctx := p.Context
	if ctx == nil {
		ctx = context.Background()
	}
	st := Stats{In: len(cand)}
	if len(cand) == 0 {
		return nil, st, nil
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
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	cs := newColumns(src, words, cand)
	if err := cs.fill(src); err != nil {
		return nil, Stats{}, err
	}

	// Contiguous shards, concatenated in order: the serial sweep's
	// emission order at any worker count.
	adm := newAdmission(src.NumRows(), p)
	var done atomic.Int64
	shards := contiguousShards(len(cand), shardWorkers(p.Workers, len(cand)))
	outs := make([][]pairs.Scored, len(shards))
	work := make([]Stats, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, sh := range shards {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			outs[s], work[s], errs[s] = packedSweep(ctx, cand[lo:hi], cs, adm, &done, total, p.Tick)
		}(s, sh[0], sh[1])
	}
	wg.Wait()
	out := make([]pairs.Scored, 0, len(cand)/4)
	for s, err := range errs {
		if err != nil {
			return nil, Stats{}, err
		}
		st.Touches += work[s].Touches
		st.PackedWords += work[s].PackedWords
		out = append(out, outs[s]...)
	}
	st.PackedBatches = 1
	st.Out = len(out)
	if p.Tick != nil {
		p.Tick(total, total)
	}
	return out, st, nil
}

// packedSweep verifies one contiguous candidate slice against the
// packed columns, emitting survivors in order, and reports the slice's
// Touches and PackedWords. done/tick report progress in candidate pairs
// across the whole call (done is shared by all sweeps); ctx is checked
// every packedTickChunk pairs.
func packedSweep(ctx context.Context, part []pairs.Scored, cs *columns, adm admission, done *atomic.Int64, total int64, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	out := make([]pairs.Scored, 0, len(part)/4)
	var work Stats
	slot := cs.slot
	for idx, p := range part {
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
	done.Add(int64(len(part) % packedTickChunk))
	return out, work, nil
}

// columns holds the candidate columns by slot: slot s is the
// sorted row list list[s] while the column has fewer than listBelow
// ones, the bitmap bits[s] otherwise, and ones[s] is its count of ones
// either way. Which container a column gets depends on its ones alone,
// never on how the source delivers them. A component with a bitmap
// holds all its containers over its own row numbering (rank in its
// union U); a bitmap is then ⌈|U|/64⌉ words. Both fills number alike,
// so PackedWords is a function of the rows and candidates alone.
type columns struct {
	words int // ⌈n/64⌉: T and the bitmaps a scan reserves read it
	cand  []pairs.Scored
	slot  []int32 // slot[c]: column c's slot, -1 when no candidate names c
	cols  []int32 // cols[s]: the column in slot s
	// comp[c] is the root column of c's component in the candidate graph
	// (-1 when no candidate names c) and next[c] the next column of that
	// component, round a cycle; size[k] is |U| of component k (in a scan,
	// the rows counted so far), and last[k] the last row a scan counted
	// in it.
	comp, next, size, last []int32
	list                   [][]int32
	bits                   [][]uint64
	ones                   []int64
	slab                   []uint64 // a scan's bitmaps, in the order handed out; slab[len:cap] is zero
	rows                   []int32  // a scan's lists, T rows a slot; a ranked component's renumbered lists
	// The ranking scratch of a ColumnLister fill that holds a bitmap:
	// uni holds one component's union over the ⌈n/64⌉ words, below[w]
	// its ones before word w, and members its columns.
	uni     []uint64
	below   []int32
	members []int32
	ranked  []int32 // the components that hold a bitmap
}

// newColumns numbers cand's columns into slots in order of first
// appearance, over ⌈n/64⌉ = words words, every container still empty. A
// scan counts rows by component, so for a streamed src the candidate
// graph is linked here, in the one allocation that holds the slots; a
// ColumnLister links it only when it holds a bitmap, as its lists need
// no component until one is ranked.
func newColumns(src matrix.RowSource, words int, cand []pairs.Scored) *columns {
	m := src.NumCols()
	cs := &columns{words: words, cand: cand}
	if _, lends := src.(matrix.ColumnLister); lends {
		cs.slot = make([]int32, m)
	} else {
		ids := make([]int32, 5*m)
		cs.slot = ids[:m]
		cs.link(ids[m:])
	}
	for c := range cs.slot {
		cs.slot[c] = -1
	}
	for _, p := range cand {
		for _, c := range [2]int32{p.I, p.J} {
			if cs.slot[c] < 0 {
				cs.slot[c] = int32(len(cs.cols))
				cs.cols = append(cs.cols, c)
			}
		}
	}
	return cs
}

// link labels every column a candidate names with its component of the
// candidate graph — one union-find over all of cand, path halving, that
// splices the two cycles of next at each union — taking comp, next,
// size and last from ids (4m long).
func (cs *columns) link(ids []int32) {
	m := len(ids) / 4
	cs.comp, cs.next, cs.size, cs.last = ids[:m], ids[m:2*m], ids[2*m:3*m], ids[3*m:]
	comp, next := cs.comp, cs.next
	for c := range comp {
		comp[c], next[c] = -1, int32(c)
	}
	for _, p := range cs.cand {
		if a, b := root(comp, p.I), root(comp, p.J); a != b {
			comp[max(a, b)] = min(a, b)
			next[a], next[b] = next[b], next[a]
		}
	}
	for c, k := range comp {
		if k >= 0 {
			comp[c] = root(comp, int32(c))
		}
	}
}

// root returns the root of c's tree in the union-find parent array comp,
// making c a root first if it is in none.
func root(comp []int32, c int32) int32 {
	if comp[c] < 0 {
		comp[c] = c
	}
	for comp[c] != c {
		comp[c] = comp[comp[c]]
		c = comp[c]
	}
	return c
}

// wordsOf is the bitmap words of a component of size rows.
func wordsOf(size int32) int { return (int(size) + 63) / 64 }

// fill loads every slot's column. A source with direct column lists (matrix.ColumnLister —
// in-memory data) lends its lists without a row scan (lend). Every other
// source is read by one sequential reader, the one pass the
// disk-resident setting allows, at any worker count: each row's rank in
// its component's union is that component's count of rows so far, and a
// column's ranks are appended to its list, a window of T rows in one
// array for all of them, until it reaches T, then go to a bitmap. Which
// columns will reach T is known only when that scan ends, so it reserves
// a ⌈n/64⌉-word bitmap for every column — the arena the all-bitmap
// kernel allocated — and cuts each to its component's words at the end;
// allocating bitmaps and lists as they grow raised the peak RSS of a
// streamed run instead (DESIGN.md, "Phase 3's containers"). The pass is
// decode-bound, and fanning its rows out to slot-range workers measured
// slower than the single reader (docs/ALGORITHMS.md, "Out-of-core
// execution").
func (cs *columns) fill(src matrix.RowSource) error {
	n := len(cs.cols)
	cs.list, cs.bits, cs.ones = make([][]int32, n), make([][]uint64, n), make([]int64, n)
	if cl, ok := src.(matrix.ColumnLister); ok {
		cs.lend(cl)
	} else if err := cs.scan(src); err != nil {
		return err
	}
	for s, l := range cs.list {
		if b := cs.bits[s]; b != nil {
			cs.ones[s] = int64(bitset.CountWords(b))
		} else {
			cs.ones[s] = int64(len(l))
		}
	}
	return nil
}

// scan fills the slots from one pass over src.
func (cs *columns) scan(src matrix.RowSource) error {
	n, t := len(cs.cols), listBelow(cs.words)
	// A bitmap of no words (an empty component) is still a bitmap: the
	// slab is never nil.
	cs.slab = make([]uint64, 0, n*cs.words)
	cs.rows = make([]int32, n*t)
	for s := range cs.list {
		cs.list[s] = cs.rows[s*t : s*t : (s+1)*t]
	}
	slot, comp, size, last := cs.slot, cs.comp, cs.size, cs.last
	for k := range size {
		size[k], last[k] = 0, -1
	}
	err := src.Scan(func(row int, rcols []int32) error {
		for _, c := range rcols {
			k := comp[c]
			if k < 0 {
				continue
			}
			if last[k] != int32(row) {
				last[k] = int32(row)
				size[k]++
			}
			s := slot[c]     // a column in a component has a slot
			x := size[k] - 1 // the row's rank in the component
			if b := cs.bits[s]; b != nil {
				b[x>>6] |= 1 << (uint(x) & 63)
			} else if cs.list[s] = append(cs.list[s], x); len(cs.list[s]) >= t {
				cs.toBitmap(int(s))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for s, l := range cs.list {
		if cs.bits[s] == nil && len(l) >= t {
			cs.toBitmap(s)
		}
	}
	for s, c := range cs.cols {
		if b := cs.bits[s]; b != nil {
			cs.bits[s] = b[:wordsOf(size[comp[c]])]
		}
	}
	return nil
}

// toBitmap moves slot s from its row list to the slab's next bitmap of
// ⌈n/64⌉ words.
func (cs *columns) toBitmap(s int) {
	n := len(cs.slab)
	cs.slab = cs.slab[:n+cs.words]
	b := cs.slab[n:]
	for _, r := range cs.list[s] {
		b[r>>6] |= 1 << (uint(r) & 63)
	}
	cs.bits[s], cs.list[s] = b, nil
}

// lend fills the slots from src's column lists. A component with no
// bitmap keeps them as lent, global row numbers and all: its pairs are
// merges, whose cost does not depend on n. A component with one is
// ranked: its union U goes into uni, and every one of its columns is
// renumbered by rank in U — its bitmaps share one block of ⌈|U|/64⌉
// words each, a list is copied into rows.
func (cs *columns) lend(cl matrix.ColumnLister) {
	t := listBelow(cs.words)
	bitmaps := 0
	for s, c := range cs.cols {
		if cs.list[s] = cl.ColumnRows(int(c)); len(cs.list[s]) >= t {
			bitmaps++
		}
	}
	if bitmaps == 0 {
		return
	}
	cs.link(make([]int32, 4*len(cs.slot)))
	cs.uni = make([]uint64, cs.words)
	cs.below = make([]int32, cs.words)
	// A ranked component's size is -1 until unite counts it.
	for s, c := range cs.cols {
		if k := cs.comp[c]; len(cs.list[s]) >= t && cs.size[k] >= 0 {
			cs.size[k] = -1
			cs.ranked = append(cs.ranked, k)
		}
	}
	rows := 0
	for s, c := range cs.cols {
		if len(cs.list[s]) < t && cs.size[cs.comp[c]] < 0 {
			rows += len(cs.list[s])
		}
	}
	cs.rows = make([]int32, rows)
	rows = 0
	uni, below := cs.uni, cs.below
	for _, k := range cs.ranked {
		lo, hi := cs.unite(cl, k)
		w, nb := wordsOf(cs.size[k]), 0
		for _, c := range cs.members {
			if len(cs.list[cs.slot[c]]) >= t { // every member is a candidate's column
				nb++
			}
		}
		// A bitmap of no words (an empty component) is still a bitmap:
		// the block is never nil.
		block := make([]uint64, nb*w)
		for _, c := range cs.members {
			s := cs.slot[c]
			l := cs.list[s]
			if len(l) < t {
				dst := cs.rows[rows : rows+len(l) : rows+len(l)]
				for i, r := range l {
					dst[i] = rank(uni, below, r)
				}
				cs.list[s], rows = dst, rows+len(l)
				continue
			}
			b := block[:w:w]
			block = block[w:]
			for _, r := range l {
				x := uint(rank(uni, below, r))
				b[x>>6] |= 1 << (x & 63)
			}
			cs.bits[s], cs.list[s] = b, nil
		}
		clear(uni[lo:hi])
	}
}

// unite lists component k's columns in members, sets in uni the union
// of their rows, counts it into size[k], fills below over the words
// [lo, hi) it occupies, and returns that range.
func (cs *columns) unite(cl matrix.ColumnLister, k int32) (lo, hi int) {
	cs.members = append(cs.members[:0], k)
	for c := cs.next[k]; c != k; c = cs.next[c] {
		cs.members = append(cs.members, c)
	}
	uni, below := cs.uni, cs.below
	lo, hi = len(uni), 0
	for _, c := range cs.members {
		l := cl.ColumnRows(int(c))
		if len(l) == 0 {
			continue
		}
		lo, hi = min(lo, int(l[0]>>6)), max(hi, int(l[len(l)-1]>>6)+1)
		for _, r := range l {
			uni[uint(r)>>6] |= 1 << (uint(r) & 63)
		}
	}
	lo = min(lo, hi) // [0, 0) for an empty union
	size := int32(0)
	for w := lo; w < hi; w++ {
		below[w] = size
		size += int32(bits.OnesCount64(uni[w]))
	}
	cs.size[k] = size
	return lo, hi
}

// rank is the number of the union's rows below row r, from the union's
// words uni and its ones below each word.
func rank(uni []uint64, below []int32, r int32) int32 {
	w := uint(r) >> 6
	return below[w] + int32(bits.OnesCount64(uni[w]&(1<<(uint(r)&63)-1)))
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

// probe counts the rows of list set in bitmap.
func probe(list []int32, bitmap []uint64) int64 {
	var n int64
	for _, r := range list {
		n += int64(bitmap[r>>6] >> (uint(r) & 63) & 1)
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
