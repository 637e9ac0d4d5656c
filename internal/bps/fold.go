package bps

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FoldState is the accumulator of the BPS support pass — phase 1 of the
// scheme, one counter per column — shaped like the MH and K-MH fold
// states: rows fold in one at a time, states over disjoint row sets
// combine exactly with Merge (the merge is +), and a state snapshots to
// bytes and back, so internal/fold schedules all three through one
// contract. A FoldState is not safe for concurrent use.
type FoldState struct {
	rows int64
	sup  []int64
}

// NewFoldState returns an all-zero support state for m columns.
func NewFoldState(m int) *FoldState { return &FoldState{sup: make([]int64, m)} }

// NumCols returns the number of columns.
func (s *FoldState) NumCols() int { return len(s.sup) }

// Rows returns the number of rows folded into the state so far.
func (s *FoldState) Rows() int64 { return s.rows }

// FoldRow counts one row. Like the sketch folds it trusts the source's
// promise that cols lie in [0, NumCols); Supports checks it for sources
// that make no such promise.
func (s *FoldState) FoldRow(_ int, cols []int32) {
	s.rows++
	for _, c := range cols {
		s.sup[c]++
	}
}

// Finish returns a copy of the supports. The state is left intact, so
// more rows can be folded and Finish called again.
func (s *FoldState) Finish() []int64 { return append([]int64(nil), s.sup...) }

// Merge adds src's counts into dst; src is left unchanged. The states
// must cover the same number of columns.
func Merge(dst, src *FoldState) error {
	if len(dst.sup) != len(src.sup) {
		return fmt.Errorf("bps: fold state mismatch: m=%d/%d", len(dst.sup), len(src.sup))
	}
	for c, n := range src.sup {
		dst.sup[c] += n
	}
	dst.rows += src.rows
	return nil
}

// Snapshot serialises the state as uvarints: the column count, the row
// count, then one support per column. The layout is a wire format (the
// dist fold frames), not a persisted one, so it carries no magic.
func (s *FoldState) Snapshot(w io.Writer) error {
	buf := make([]byte, 0, (len(s.sup)+2)*2)
	buf = binary.AppendUvarint(buf, uint64(len(s.sup)))
	buf = binary.AppendUvarint(buf, uint64(s.rows))
	for _, n := range s.sup {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	_, err := w.Write(buf)
	return err
}

// ReadFoldState parses a stream written by Snapshot, consuming exactly
// its bytes. The vector grows as supports actually arrive, so a column
// count larger than its payload ends in an error, not an allocation.
func ReadFoldState(r io.ByteReader) (*FoldState, error) {
	m, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("bps: reading fold header: %w", err)
	}
	rows, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("bps: reading fold header: %w", err)
	}
	if m > 1<<31 || rows > 1<<40 {
		return nil, fmt.Errorf("bps: implausible fold dimensions m=%d rows=%d", m, rows)
	}
	s := &FoldState{rows: int64(rows), sup: []int64{}}
	for c := uint64(0); c < m; c++ {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("bps: reading support %d of %d: %w", c, m, err)
		}
		if n > rows {
			return nil, fmt.Errorf("bps: column %d support %d exceeds %d rows", c, n, rows)
		}
		s.sup = append(s.sup, int64(n))
	}
	return s, nil
}
