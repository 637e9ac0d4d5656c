package minhash

import (
	"fmt"

	"assocmine/internal/hashing"
)

// FoldState is the accumulator of the MH signature pass, and the only
// row-fold loop of the package: Compute, the streamed driver and
// ingestion all fold through it. The running minima are column-major —
// each column's k minima contiguous — so the inner k-loop sweeps one
// L1-resident slice (foldMinMax) instead of scattering across the
// hash-major value array with stride m; Finish transposes once, and
// per-cell minima are order-independent, so the result is bit-identical
// to a direct scatter.
//
// Each column also keeps its ceiling, the largest of its k running
// minima. A row whose smallest hash is not below a column's ceiling
// cannot lower any of that column's minima, so FoldRow skips the
// column's sweep outright: the skip is exact, not an estimate. A column
// of t rows then pays about k·H_k·(1 + ln(t / k·H_k)) sweeps instead of
// t (H_k the k-th harmonic number), so the heavy columns of a skewed
// dataset fold at almost no cost. The ceilings are derived state: they
// are not persisted, and ReadFoldState and Merge rebuild them.
//
// The state is resumable: ingestion can stop after
// any row, snapshot to disk (Snapshot/ReadFoldState, format AMF1), and
// continue later at O(new rows) cost.
// States over disjoint row sets combine exactly with Merge — the
// minimum over a union of rows is the minimum of the per-part minima.
// That is the whole phase-1 contract, fold.State: internal/fold wraps
// this type (and its K-MH and BPS-support siblings) and owns the one
// fan-out/merge loop (fold.FoldStream) that the driver, Ingest and dist
// schedule.
//
// A FoldState is not safe for concurrent use; parallel folds give each
// worker its own state and merge afterwards.
type FoldState struct {
	k, m    int
	seed    uint64
	rows    int64    // rows folded so far
	work    []uint64 // column-major running minima: work[c*k+l]
	ceil    []uint64 // ceil[c] = max(work[c*k : c*k+k]), column c's ceiling
	hs      []hashing.PermHash
	rowVals []uint64 // per-row hash scratch
}

// NewFoldState returns an empty fold state for m columns and k hash
// functions derived from seed. Folding rows into it and calling Finish
// yields exactly what Compute returns for the same rows.
func NewFoldState(m, k int, seed uint64) (*FoldState, error) {
	if k <= 0 {
		return nil, fmt.Errorf("minhash: k must be positive, got %d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("minhash: negative column count %d", m)
	}
	s := &FoldState{
		k:       k,
		m:       m,
		seed:    seed,
		work:    make([]uint64, k*m),
		ceil:    make([]uint64, m),
		hs:      hashing.NewPermHashes(seed, k),
		rowVals: make([]uint64, k),
	}
	for i := range s.work {
		s.work[i] = Empty
	}
	for c := range s.ceil {
		s.ceil[c] = Empty
	}
	return s, nil
}

// K returns the number of hash functions.
func (s *FoldState) K() int { return s.k }

// NumCols returns the number of columns.
func (s *FoldState) NumCols() int { return s.m }

// Seed returns the hash-family seed.
func (s *FoldState) Seed() uint64 { return s.seed }

// Rows returns the number of rows folded into the state so far.
func (s *FoldState) Rows() int64 { return s.rows }

// FoldRow folds one row (its sorted column indices) into the state.
// Rows may arrive in any order, but each row id must be folded at most
// once across all states that will be merged together.
func (s *FoldState) FoldRow(row int, cols []int32) {
	s.rows++
	if len(cols) == 0 {
		return
	}
	k, lo := s.k, Empty
	for l, h := range s.hs[:k] {
		v := h.Row(row)
		s.rowVals[l] = v
		lo = min(lo, v)
	}
	for _, c := range cols {
		// Every hash of the row is >= lo >= ceil[c] >= each minimum of
		// the column: none of them can fall.
		if lo < s.ceil[c] {
			s.ceil[c] = foldMinMax(s.work[int(c)*k:int(c)*k+k], s.rowVals)
		}
	}
}

// rebuildCeilings recomputes every column's ceiling from its minima,
// after the minima changed wholesale (a decoded snapshot, a merge).
func (s *FoldState) rebuildCeilings() {
	if len(s.ceil) != s.m {
		s.ceil = make([]uint64, s.m)
	}
	for c := range s.ceil {
		hi := uint64(0)
		for _, v := range s.work[c*s.k : (c+1)*s.k] {
			hi = max(hi, v)
		}
		s.ceil[c] = hi
	}
}

// Finish transposes the running minima into the hash-major Signatures
// layout. The state is left intact, so more rows can be folded and
// Finish called again.
func (s *FoldState) Finish() *Signatures {
	sig := &Signatures{K: s.k, M: s.m, Vals: make([]uint64, s.k*s.m)}
	for c := 0; c < s.m; c++ {
		for l, v := range s.work[c*s.k : (c+1)*s.k] {
			sig.Vals[l*s.m+c] = v
		}
	}
	return sig
}

// Merge folds src into dst: the pointwise minimum of the two minima
// arrays. If dst and src were folded from disjoint row sets, dst
// becomes exactly the state of folding their union — minimisation is
// commutative, associative, and idempotent-with-empty, so any merge
// order (and any row partition) yields the same state bit for bit. src
// is left unchanged. The states must agree on k, m, and seed. dst's
// ceilings are recomputed from the merged minima.
func Merge(dst, src *FoldState) error {
	if dst.k != src.k || dst.m != src.m || dst.seed != src.seed {
		return fmt.Errorf("minhash: fold state mismatch: k=%d/%d m=%d/%d seed=%#x/%#x",
			dst.k, src.k, dst.m, src.m, dst.seed, src.seed)
	}
	for i, v := range src.work {
		if v < dst.work[i] {
			dst.work[i] = v
		}
	}
	dst.rebuildCeilings()
	dst.rows += src.rows
	return nil
}
