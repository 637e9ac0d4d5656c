// Packed verification: the same exact pruning pass as Exact, computed
// over word-packed bit-columns instead of per-row counter scatter. The
// columns referenced by the candidate list — typically a small fraction
// of the matrix — are packed into a dense arena of ⌈n/64⌉-word bitmaps,
// and each candidate's |C_i ∩ C_j| falls out of one AND popcount sweep
// (bitset.AndCountWords); |C_i ∪ C_j| is |C_i| + |C_j| − |C_i ∩ C_j|
// from the per-column popcounts taken once per batch. The counts are
// the same integers the scalar counters accumulate, divided by the
// same float64 division, and candidates are emitted in the same order,
// so results are bit-identical to Exact for any batch size, worker
// count or data-delivery strategy.
//
// Memory is bounded by batching: when a Budget is set, candidates are
// split into contiguous batches whose distinct endpoint columns fit the
// arena budget, with one packing pass per batch. When even two columns
// do not fit, Verify falls back to the scalar kernel wholesale — the
// spilling table is the bounded-memory strategy of last resort.
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
)

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
// once: all of them when it is unlimited.
func arenaCols(src matrix.RowSource, budget Budget) int {
	words := int64(src.NumRows()+63) / 64
	if budget.Bytes <= 0 || words == 0 {
		return src.NumCols()
	}
	return int(min(int64(src.NumCols()), budget.Bytes/(words*8)))
}

// packed is the word-packed popcount kernel over cand (already
// validated), at most maxCols >= 2 distinct columns to a batch:
// PackedWords/PackedBatches report its work. Sources implementing
// matrix.ColumnLister are packed directly from their column lists
// without a row scan; other sources pay one sequential scan per batch,
// by a single reader at any worker count.
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

	slot := make([]int32, m)
	for i := range slot {
		slot[i] = -1
	}
	var cols []int32
	var arena []uint64
	var colOnes []int64
	out := make([]pairs.Scored, 0, len(cand)/4)
	var done atomic.Int64

	for batchStart := 0; batchStart < len(cand); {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		// Greedy contiguous batch: maxCols >= 2 guarantees progress,
		// since one candidate claims at most two arena slots.
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
		need := len(cols) * words
		if cap(arena) < need {
			arena = make([]uint64, need)
		} else {
			arena = arena[:need]
			for i := range arena {
				arena[i] = 0
			}
		}
		if err := packColumns(src, slot, cols, arena, words); err != nil {
			return nil, Stats{}, err
		}
		// Per-slot popcounts, once per batch: colOnes[slot[I]] +
		// colOnes[slot[J]] is exactly the per-row counter updates the
		// scalar pass charges candidate (I,J) to Touches, and less the
		// pair's intersection it is the pair's union.
		if cap(colOnes) < len(cols) {
			colOnes = make([]int64, len(cols))
		}
		colOnes = colOnes[:len(cols)]
		for s := range cols {
			colOnes[s] = int64(bitset.CountWords(arena[s*words : (s+1)*words]))
		}

		// Contiguous shards, concatenated in order: the serial sweep's
		// emission order at any worker count.
		batch := cand[batchStart:batchEnd]
		shards := contiguousShards(len(batch), shardWorkers(workers, len(batch)))
		outs := make([][]pairs.Scored, len(shards))
		touches := make([]int64, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for s, sh := range shards {
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				outs[s], touches[s], errs[s] = packedSweep(ctx, batch[lo:hi], arena, slot, colOnes, words, p.Threshold, &done, total, p.Tick)
			}(s, sh[0], sh[1])
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				return nil, Stats{}, err
			}
			st.Touches += touches[s]
			out = append(out, outs[s]...)
		}
		st.PackedWords += int64(len(batch)) * int64(words)
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
// packed arena, emitting survivors in order. done/tick report progress
// in candidate pairs across the whole call (done is shared by all
// sweeps); ctx is checked every packedTickChunk pairs.
func packedSweep(ctx context.Context, batch []pairs.Scored, arena []uint64, slot []int32, colOnes []int64, words int, threshold float64, done *atomic.Int64, total int64, tick obs.Tick) ([]pairs.Scored, int64, error) {
	out := make([]pairs.Scored, 0, len(batch)/4)
	var touches int64
	for idx, p := range batch {
		si, sj := int(slot[p.I]), int(slot[p.J])
		and := int64(bitset.AndCountWords(arena[si*words:(si+1)*words], arena[sj*words:(sj+1)*words]))
		ones := colOnes[si] + colOnes[sj]
		touches += ones
		if or := ones - and; or != 0 {
			if s := float64(and) / float64(or); s >= threshold {
				p.Exact = s
				out = append(out, p)
			}
		}
		if (idx+1)%packedTickChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			if tick != nil {
				tick(done.Add(packedTickChunk), total)
			}
		}
	}
	done.Add(int64(len(batch) % packedTickChunk))
	return out, touches, nil
}

// packColumns fills the arena with the bit-columns of cols: bit (slot,
// row) is set iff the row has a 1 in the column assigned to that slot.
// A source with direct column lists (matrix.ColumnLister — in-memory
// data) is packed from them without a row scan; every other source is
// packed by one sequential reader, the one pass the disk-resident
// setting allows, at any worker count: the pass is decode-bound, and
// fanning its rows out to slot-range workers measured slower than the
// single reader (docs/ALGORITHMS.md, "Out-of-core execution").
func packColumns(src matrix.RowSource, slot []int32, cols []int32, arena []uint64, words int) error {
	if cl, ok := src.(matrix.ColumnLister); ok {
		for s, c := range cols {
			base := s * words
			for _, r := range cl.ColumnRows(int(c)) {
				arena[base+int(r>>6)] |= 1 << (uint(r) & 63)
			}
		}
		return nil
	}
	return src.Scan(func(row int, rcols []int32) error {
		w := row >> 6
		bit := uint64(1) << (uint(row) & 63)
		for _, c := range rcols {
			if sl := slot[c]; sl >= 0 {
				arena[int(sl)*words+w] |= bit
			}
		}
		return nil
	})
}
