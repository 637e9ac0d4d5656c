// Budgeted verification: the same exact pruning pass as Exact, but with
// the candidate counter table held in bounded memory. The paper assumes
// "all of the candidates can fit in main memory"; when they do not, the
// pass keeps a bounded table of the recently-touched candidates and,
// whenever the table would exceed its budget, spills it to disk as a
// sorted run of (candidate index, either, both) partial counts. Because
// counters are pure sums and spills happen only at row boundaries, the
// external merge of all runs at the end of the single data pass
// reconstructs exactly the counts the unbounded pass would have
// produced — results are bit-identical to Exact for any budget, worker
// count, or spill schedule.
//
// Each worker appends its runs to one spill file as (offset, length)
// sections and merges them with a bounded fan-in: above spillFanIn
// runs, groups of runs are first merged into intermediate sections of
// the same file, so the pass holds one descriptor per worker and
// O(spillFanIn) cursor buffers however many runs the budget forces.
package verify

import (
	"bufio"
	"io"
	"os"

	"assocmine/internal/bitpack"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// Budget bounds the memory of the verification counter table.
type Budget struct {
	// Bytes is the counter-table budget in bytes; <= 0 means unlimited
	// (no spilling). The candidate list itself, the per-column
	// candidate index and the per-column ones counters are inputs and
	// are not charged against it.
	Bytes int64
	// Dir receives the spill files, one per worker; "" means the OS temp
	// directory. They are deleted before the call returns.
	Dir string
}

const (
	// denseCounterBytes is the per-candidate cost of the unbounded
	// scratch (either, both, lastRow int32): when the whole table fits
	// the budget, the plain path is used and nothing spills.
	denseCounterBytes = 12
	// spillEntryBytes is the accounted per-entry cost of the bounded
	// table in spill mode: a 16 B slot at the table's 2/3 load (24 B)
	// plus the drain scratch, a uint64 key and an int32 slot position
	// with their radix ping-pong twins (24 B). The value also fixes the
	// spill schedule, so SpillRuns and SpillBytes depend on it.
	spillEntryBytes = 48
	// minSpillEntries keeps pathological budgets from spilling after
	// every row.
	minSpillEntries = 16
	// spillFanIn bounds the sections one merge reads at once.
	spillFanIn = 128
	// mergeWindowPerEntry sizes the merge's dense counter window in
	// candidates per table entry: two int32 each, half the table's
	// accounted bytes.
	mergeWindowPerEntry = 3
)

// ExactBudgeted forces Verify's scalar kernel: dense counters when they
// fit budget.Bytes (or it is <= 0), the spilling table otherwise.
func ExactBudgeted(src matrix.RowSource, cand []pairs.Scored, threshold float64, budget Budget, workers int, tick obs.Tick) ([]pairs.Scored, Stats, error) {
	return Verify(src, cand, Params{Threshold: threshold, Kernel: KernelScalar, Budget: budget, Workers: workers, Tick: tick})
}

// spillEntry is one (candidate, partial counts) record of a run.
type spillEntry struct {
	idx          int32
	either, both int32
}

// spillSlot is one slot of the bounded counter table.
type spillSlot struct {
	key          int32 // candidate index + 1; 0 marks a free slot
	either, both int32
	lastRowP1    int32 // row + 1 of the last touch, so a fresh slot matches no row
}

// spillTable is the bounded counter table: open addressing with linear
// probing over one flat slot array (a touch stays in one cache line),
// keyed by candidate index. It is sized for maxEntries at a load of 2/3
// and doubles only when one long row overshoots that to 3/4; a spill
// frees the drained slots one by one and keeps the array.
type spillTable struct {
	slot []spillSlot
	n    int // occupied slots

	// Drain scratch: the occupied slots' keys and positions, and the
	// radix sort's second buffers.
	keys, keyScratch []uint64
	pos, posScratch  []int32
}

func newSpillTable(maxEntries int) *spillTable {
	return &spillTable{slot: make([]spillSlot, maxEntries+maxEntries/2+1)}
}

// home is the first slot probed for a key: a Fibonacci hash scaled to
// the slot count by multiplication, so any capacity works.
func (t *spillTable) home(key int32) int {
	return int(uint64(uint32(key)*0x9E3779B1) * uint64(len(t.slot)) >> 32)
}

// touch counts a 1 of row r in one endpoint column of candidate idx:
// a row's first touch counts the union, its second the intersection.
func (t *spillTable) touch(idx, r int32) {
	key := idx + 1
	for h := t.home(key); ; {
		switch e := &t.slot[h]; e.key {
		case key:
			if e.lastRowP1 == r+1 {
				e.both++
			} else {
				e.lastRowP1 = r + 1
				e.either++
			}
			return
		case 0:
			*e = spillSlot{key: key, either: 1, lastRowP1: r + 1}
			if t.n++; t.n*4 > len(t.slot)*3 {
				t.grow()
			}
			return
		}
		if h++; h == len(t.slot) {
			h = 0
		}
	}
}

// grow doubles the table, keeping every counter.
func (t *spillTable) grow() {
	old := t.slot
	t.slot = make([]spillSlot, 2*len(old))
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		g := t.home(e.key)
		for t.slot[g].key != 0 {
			if g++; g == len(t.slot) {
				g = 0
			}
		}
		t.slot[g] = e
	}
}

// sorted returns the positions of the occupied slots in increasing
// candidate order. The slice is the table's scratch, valid until the
// next call.
func (t *spillTable) sorted() []int32 {
	if cap(t.keys) < t.n {
		c := t.n + t.n/4
		t.keys, t.keyScratch = make([]uint64, c), make([]uint64, c)
		t.pos, t.posScratch = make([]int32, c), make([]int32, c)
	}
	keys, pos := t.keys[:0], t.pos[:0]
	for h := range t.slot {
		if key := t.slot[h].key; key != 0 {
			keys, pos = append(keys, uint64(key)), append(pos, int32(h))
		}
	}
	radix.SortByKey(keys, pos, t.keyScratch, t.posScratch)
	return pos
}

// entry returns the counts held at slot position h.
func (t *spillTable) entry(h int32) spillEntry {
	e := &t.slot[h]
	return spillEntry{idx: e.key - 1, either: e.either, both: e.both}
}

// free empties the slots at the given positions, which must be all the
// occupied ones.
func (t *spillTable) free(pos []int32) {
	for _, h := range pos {
		t.slot[h].key = 0
	}
	t.n = 0
}

// runSection locates one sorted run inside a worker's spill file.
type runSection struct{ off, n int64 }

// budgetWorker is the spilling scalar kernel: the counters of one
// contiguous candidate shard in a bounded table, beside a ones counter
// per column a candidate names (not charged to the budget, like
// pairsOf).
type budgetWorker struct {
	cand       []pairs.Scored
	adm        admission
	pairsOf    pairIndex
	ones       []int32
	table      *spillTable
	maxEntries int
	fanIn      int
	dir        string
	file       *os.File // the spill file, created by the first spill
	rw         *runWriter
	runs       []runSection
	winEither  []int32 // the merge window's counters, see mergeCursors
	winBoth    []int32
	st         Stats
}

func newBudgetWorker(m int, cand []pairs.Scored, adm admission, maxEntries, fanIn int, dir string) *budgetWorker {
	return &budgetWorker{
		cand:       cand,
		adm:        adm,
		pairsOf:    newPairIndex(m, cand),
		ones:       make([]int32, m),
		table:      newSpillTable(maxEntries),
		maxEntries: maxEntries,
		fanIn:      fanIn,
		dir:        dir,
	}
}

// processRow folds one row into the table, spilling afterwards if the
// row pushed the table over budget. Spills happen only at row
// boundaries: within a row the second-endpoint detection needs the
// first endpoint's entry resident, so the table may exceed the bound by
// the candidates one row touches.
func (w *budgetWorker) processRow(r int32, cols []int32) error {
	t, start := w.table, w.pairsOf.start
	for _, c := range cols {
		lo, hi := start[c], start[c+1]
		if lo == hi {
			continue
		}
		w.ones[c]++
		w.st.Touches += int64(hi - lo)
		for _, idx := range w.pairsOf.idx[lo:hi] {
			t.touch(idx, r)
		}
	}
	if t.n > w.maxEntries {
		return w.spill()
	}
	return nil
}

// spill appends the table to the spill file as one sorted run and
// empties it.
func (w *budgetWorker) spill() error {
	if w.file == nil {
		f, err := os.CreateTemp(w.dir, "assocmine-spill-*.run")
		if err != nil {
			return err
		}
		w.file, w.rw = f, newRunWriter(f)
	}
	pos := w.table.sorted()
	for _, h := range pos {
		if err := w.rw.add(w.table.entry(h)); err != nil {
			return err
		}
	}
	sec, raw, err := w.rw.endRun()
	if err != nil {
		return err
	}
	w.table.free(pos)
	w.runs = append(w.runs, sec)
	w.st.SpillRuns++
	w.st.SpillBytes += sec.n
	w.st.SpillBytesRaw += raw
	w.st.SpillBytesCompressed += sec.n
	return nil
}

// finish merges the resident table with every spilled run and emits
// the surviving pairs in candidate order. More than fanIn runs are
// first merged, fanIn at a time, into intermediate sections, generation
// after generation, until one merge can read what is left; Stats count
// the first-generation runs only, so they do not depend on the fan-in.
func (w *budgetWorker) finish() ([]pairs.Scored, error) {
	cursors := make([]runCursor, min(len(w.runs), w.fanIn)+1)
	w.winEither = make([]int32, min(mergeWindowPerEntry*w.maxEntries, len(w.cand)))
	w.winBoth = make([]int32, len(w.winEither))
	runs := w.runs
	for len(runs) > w.fanIn {
		var next []runSection
		for lo := 0; lo < len(runs); lo += w.fanIn {
			group := runs[lo:min(lo+w.fanIn, len(runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			sec, err := w.mergeToSection(cursors[:len(group)], group)
			if err != nil {
				return nil, err
			}
			next = append(next, sec)
		}
		runs = next
	}

	out := make([]pairs.Scored, 0, len(w.cand)/4)
	cursors = cursors[:len(runs)+1]
	w.open(cursors, runs)
	cursors[len(runs)] = runCursor{table: w.table, tpos: w.table.sorted()}
	err := mergeCursors(cursors, w.winEither, w.winBoth, func(e spillEntry) error {
		p := w.cand[e.idx]
		if s, ok := w.adm.admit(int64(w.ones[p.I]), int64(w.ones[p.J]), int64(e.both), int64(e.either)); ok {
			p.Exact = s
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.st.Out = len(out)
	return out, nil
}

// open points cursors[i] at runs[i], keeping the cursors' buffers.
func (w *budgetWorker) open(cursors []runCursor, runs []runSection) {
	for i, sec := range runs {
		cursors[i].reset(w.file, sec, len(w.cand))
	}
}

// mergeToSection merges the runs into one new section at the end of
// the spill file.
func (w *budgetWorker) mergeToSection(cursors []runCursor, runs []runSection) (runSection, error) {
	w.open(cursors, runs)
	if err := mergeCursors(cursors, w.winEither, w.winBoth, w.rw.add); err != nil {
		return runSection{}, err
	}
	sec, _, err := w.rw.endRun()
	return sec, err
}

func (w *budgetWorker) work() Stats { return w.st }

// cleanup closes and deletes the spill file.
func (w *budgetWorker) cleanup() {
	if w.file != nil {
		w.file.Close()
		os.Remove(w.file.Name())
		w.file = nil
	}
}

// runCursor streams one sorted run a block at a time: a section of the
// spill file, or (table set) the resident table at the sorted slot
// positions tpos.
type runCursor struct {
	sec   io.SectionReader
	br    *bufio.Reader
	table *spillTable
	tpos  []int32

	blk  []spillEntry // the decoded block and the read position in it
	pos  int
	done bool

	// Run decode state: the bit reader, the running previous
	// index of the delta chain, and the candidate count bounding decoded
	// indices.
	bits    bitpack.Reader
	prevIdx int64
	nCand   int32
}

// reset points the cursor at a section of f, keeping its buffers.
func (c *runCursor) reset(f io.ReaderAt, sec runSection, nCand int) {
	c.sec = *io.NewSectionReader(f, sec.off, sec.n)
	if c.br == nil {
		c.br = bufio.NewReader(&c.sec)
		c.blk = make([]spillEntry, 0, spillBlockEntries)
	} else {
		c.br.Reset(&c.sec)
	}
	c.bits.Reset(c.br)
	c.blk, c.pos, c.done, c.prevIdx, c.nCand = c.blk[:0], 0, false, -1, int32(nCand)
}

// block returns the decoded entries not yet consumed (the caller
// advances c.pos), loading the next block when there are none; it is
// empty at the end of the run.
func (c *runCursor) block() ([]spillEntry, error) {
	if c.pos >= len(c.blk) && !c.done {
		if err := c.fill(); err == io.EOF {
			c.done, c.blk = true, c.blk[:0]
		} else if err != nil {
			return nil, err
		}
	}
	return c.blk[c.pos:], nil
}

// fill loads the next block, returning io.EOF at the end of the run.
func (c *runCursor) fill() error {
	c.pos = 0
	if c.table == nil {
		return c.readSpillBlock()
	}
	n := min(len(c.tpos), spillBlockEntries)
	if n == 0 {
		return io.EOF
	}
	c.blk = c.blk[:0]
	for _, h := range c.tpos[:n] {
		c.blk = append(c.blk, c.table.entry(h))
	}
	c.tpos = c.tpos[n:]
	return nil
}

// mergeCursors sums the runs' partial counts per candidate and hands
// each candidate's total to emit, in candidate order. It is a
// distribution merge: the index range is walked in windows of
// len(either) candidates whose totals accumulate in either and both
// (all zero on entry and on return), every cursor adding its entries
// below the window's end, so an entry costs two additions however many
// runs there are. Stretches of indices no run holds are jumped over.
func mergeCursors(cs []runCursor, either, both []int32, emit func(spillEntry) error) error {
	for lo := int64(0); lo >= 0; {
		hi := lo + int64(len(either))
		next := int64(-1) // the smallest index at or above hi
		for i := range cs {
			c := &cs[i]
			for {
				blk, err := c.block()
				if err != nil {
					return err
				}
				n := 0
				for n < len(blk) && int64(blk[n].idx) < hi {
					e := blk[n]
					either[int64(e.idx)-lo] += e.either
					both[int64(e.idx)-lo] += e.both
					n++
				}
				c.pos += n
				if n < len(blk) && (next < 0 || int64(blk[n].idx) < next) {
					next = int64(blk[n].idx)
				}
				if n < len(blk) || n == 0 {
					break
				}
			}
		}
		for j, e := range either {
			if e == 0 {
				continue
			}
			if err := emit(spillEntry{idx: int32(lo) + int32(j), either: e, both: both[j]}); err != nil {
				return err
			}
			either[j], both[j] = 0, 0
		}
		lo = next
	}
	return nil
}
