package minhash

import (
	"fmt"

	"assocmine/internal/hashing"
)

// FoldState is the accumulator of the MH signature pass, and the only
// row-fold loop of the package: Compute, the streamed driver and
// ingestion all fold through it. The running minima are column-major —
// each column's k minima contiguous — so the inner k-loop sweeps one
// L1-resident slice (foldMin) instead of scattering across the
// hash-major value array with stride m; Finish transposes once, and
// per-cell minima are order-independent, so the result is bit-identical
// to a direct scatter. The state is resumable: ingestion can stop after
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
		hs:      hashing.NewPermHashes(seed, k),
		rowVals: make([]uint64, k),
	}
	for i := range s.work {
		s.work[i] = Empty
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
	k := s.k
	for l := 0; l < k; l++ {
		s.rowVals[l] = s.hs[l].Row(row)
	}
	for _, c := range cols {
		foldMin(s.work[int(c)*k:int(c)*k+k], s.rowVals)
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
// is left unchanged. The states must agree on k, m, and seed.
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
	dst.rows += src.rows
	return nil
}
