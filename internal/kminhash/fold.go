package kminhash

import (
	"fmt"

	"assocmine/internal/hashing"
)

// FoldState is the accumulator of the K-MH sketch pass — one bounded
// max-heap per column — and the only row-fold loop of the package:
// Compute, the streamed driver and ingestion all fold through it. It is
// resumable: ingestion can stop after any row, snapshot to disk
// (Snapshot/ReadFoldState, format KMF1), and continue later at O(new
// rows) cost.
// States over disjoint row sets combine with Merge: the k smallest
// hash values of a union of rows are the k smallest of the two parts'
// bottom-k multisets, so the merged state finishes to exactly the
// sketch of the union. That is the whole phase-1 contract, fold.State:
// internal/fold wraps this type (and its MH and BPS-support siblings)
// and owns the one fan-out/merge loop (fold.FoldStream) that the
// driver, Ingest and dist schedule.
//
// The heap arrays are kept verbatim across snapshot round-trips, so a
// resumed sequential fold replays exactly as an uninterrupted one,
// including the order-dependent Updates counter. Merging instead
// canonicalises only the multiset content: Finish output is exact, but
// Updates becomes the sum of the parts (the serial counter depends on
// arrival order). A FoldState is not safe for concurrent use.
type FoldState struct {
	k, m     int
	seed     uint64
	rows     int64      // rows folded so far
	updates  int64      // bounded-heap replacements (summed on merge)
	heaps    [][]uint64 // per-column max-heap, len = min(k, colSize)
	colSizes []int      // |C_c| over the folded rows
	h        hashing.PermHash
}

// NewFoldState returns an empty fold state for m columns and bottom-k
// sketches under the permutation hash of seed. Folding rows into it and
// calling Finish yields exactly what Compute returns for the same rows.
func NewFoldState(m, k int, seed uint64) (*FoldState, error) {
	if k <= 0 {
		return nil, fmt.Errorf("kminhash: k must be positive, got %d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("kminhash: negative column count %d", m)
	}
	s := &FoldState{
		k:        k,
		m:        m,
		seed:     seed,
		heaps:    make([][]uint64, m),
		colSizes: make([]int, m),
		h:        hashing.NewPermHash(seed),
	}
	// One m·k arena, sliced per column, as in newSketches.
	backing := make([]uint64, m*k)
	for c := range s.heaps {
		s.heaps[c] = backing[c*k : c*k : (c+1)*k]
	}
	return s, nil
}

// K returns the sketch size bound.
func (s *FoldState) K() int { return s.k }

// NumCols returns the number of columns.
func (s *FoldState) NumCols() int { return s.m }

// Seed returns the permutation-hash seed.
func (s *FoldState) Seed() uint64 { return s.seed }

// Rows returns the number of rows folded into the state so far.
func (s *FoldState) Rows() int64 { return s.rows }

// Updates returns the bounded-heap replacement count: exact for a
// sequential fold (snapshot round-trips included), summed across parts
// after a Merge.
func (s *FoldState) Updates() int64 { return s.updates }

// FoldRow folds one row (its sorted column indices) into the state:
// the row's hash is offered to the bounded heap of every column it
// sets. Each row id must be folded at most once across all states that
// will be merged together.
func (s *FoldState) FoldRow(row int, cols []int32) {
	s.rows++
	if len(cols) == 0 {
		return
	}
	v := s.h.Row(row)
	for _, c := range cols {
		s.colSizes[c]++
		heap := s.heaps[c]
		if len(heap) < s.k {
			s.heaps[c] = pushMaxHeap(heap, v)
			s.updates++
		} else if v < heap[0] {
			replaceMaxHeapRoot(heap, v)
			s.updates++
		}
	}
}

// Finish copies the heaps into canonical (ascending-sorted) Sketches.
// The state is left intact, so more rows can be folded and Finish
// called again. The copy is compact — one backing array of exactly the
// cells the columns hold, not the state's m·k arena — so on sparse
// data, where most columns have fewer than k rows, the resident sketch
// is a fraction of the fold state it came from.
func (s *FoldState) Finish() *Sketches {
	cells := 0
	for _, heap := range s.heaps {
		cells += len(heap)
	}
	out := &Sketches{
		K:        s.k,
		Sigs:     make([][]uint64, s.m),
		ColSizes: append([]int(nil), s.colSizes...),
		Updates:  s.updates,
	}
	backing := make([]uint64, 0, cells)
	for c, heap := range s.heaps {
		from := len(backing)
		backing = append(backing, heap...)
		sig := backing[from:len(backing):len(backing)]
		sortSketch(sig)
		out.Sigs[c] = sig
	}
	return out
}

// Merge folds src into dst: every value of src's heaps is offered to
// dst's bounded heaps, which keeps the k smallest values of the two
// multisets combined — duplicates included, because distinct rows with
// colliding hashes each occupy a sketch slot (unlike the union sketch
// SIG_{i∪j}, whose set semantics model the union COLUMN c_i ∨ c_j).
// If dst and src were folded from disjoint row sets, Finish on the
// merged state equals Compute over the union of the rows exactly; the
// heap ARRAY layout depends on merge order even though the multiset
// content does not.
// Column sizes, row and update counts are summed. src is left
// unchanged. The states must agree on k, m, and seed.
func Merge(dst, src *FoldState) error {
	if dst.k != src.k || dst.m != src.m || dst.seed != src.seed {
		return fmt.Errorf("kminhash: fold state mismatch: k=%d/%d m=%d/%d seed=%#x/%#x",
			dst.k, src.k, dst.m, src.m, dst.seed, src.seed)
	}
	for c, srcHeap := range src.heaps {
		dst.colSizes[c] += src.colSizes[c]
		for _, v := range srcHeap {
			heap := dst.heaps[c]
			if len(heap) < dst.k {
				dst.heaps[c] = pushMaxHeap(heap, v)
			} else if v < heap[0] {
				replaceMaxHeapRoot(heap, v)
			}
		}
	}
	dst.rows += src.rows
	dst.updates += src.updates
	return nil
}
