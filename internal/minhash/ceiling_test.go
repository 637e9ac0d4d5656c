package minhash

import (
	"bytes"
	"testing"

	"assocmine/internal/hashing"
)

// sweepFold is the fold without ceilings, the oracle FoldRow's skip must
// match bit for bit: every row lowers the k minima of every one of its
// columns, one unconditional sweep (foldMin) per entry.
type sweepFold struct {
	k       int
	work    []uint64
	hs      []hashing.PermHash
	rowVals []uint64
}

func newSweepFold(m, k int, seed uint64) *sweepFold {
	s := &sweepFold{k: k, work: make([]uint64, m*k), hs: hashing.NewPermHashes(seed, k), rowVals: make([]uint64, k)}
	for i := range s.work {
		s.work[i] = Empty
	}
	return s
}

func (s *sweepFold) foldRow(row int, cols []int32) {
	for l := range s.rowVals {
		s.rowVals[l] = s.hs[l].Row(row)
	}
	for _, c := range cols {
		foldMin(s.work[int(c)*s.k:int(c)*s.k+s.k], s.rowVals)
	}
}

// foldMin lowers each dst[l] to rowVals[l] when smaller.
func foldMin(dst, rowVals []uint64) {
	for l, v := range rowVals[:len(dst)] {
		if v < dst[l] {
			dst[l] = v
		}
	}
}

// checkCeilings fails unless every ceiling is exactly the largest of its
// column's minima: a ceiling below it would skip rows that lower a
// minimum, one above it forgoes skips.
func checkCeilings(t *testing.T, s *FoldState, when string) {
	t.Helper()
	for c := 0; c < s.m; c++ {
		hi := uint64(0)
		for _, v := range s.work[c*s.k : (c+1)*s.k] {
			hi = max(hi, v)
		}
		if s.ceil[c] != hi {
			t.Fatalf("%s: column %d ceiling %#x, its minima peak at %#x", when, c, s.ceil[c], hi)
		}
	}
}

// skewedRows draws rows over cols columns where column c is set with
// probability 1/(c+2): the low columns collect hundreds of rows, enough
// that their ceilings fall below most rows' smallest hash.
func skewedRows(seed uint64, rows, cols int) [][]int32 {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]int32, rows)
	for r := range out {
		for c := 0; c < cols; c++ {
			if rng.Intn(c+2) == 0 {
				out[r] = append(out[r], int32(c))
			}
		}
	}
	return out
}

// FuzzCeilingVsSweep folds skewed rows into a chain of states — some
// restored from their own snapshot, some split off and merged back in
// either direction at rows the fuzzer picks — and requires the minima to
// equal the ceiling-free sweep's bit for bit, and every ceiling to stay
// exact. It guards against a restored or merged state whose stale
// ceilings silently skip rows.
func FuzzCeilingVsSweep(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(8), uint16(300), []byte{})
	f.Add(uint64(2), uint8(40), uint8(16), uint16(600), []byte{0, 5, 0, 6, 0, 0, 7, 6, 5, 7})
	f.Add(uint64(3), uint8(5), uint8(1), uint16(50), []byte{6, 6, 6, 7, 7, 5, 5})
	f.Fuzz(func(t *testing.T, seed uint64, colsU, kU uint8, rowsU uint16, ops []byte) {
		cols, k, rows := 1+int(colsU%48), 1+int(kU%20), int(rowsU%1024)
		data := skewedRows(seed, rows, cols)
		oracle := newSweepFold(cols, k, seed)
		fresh := func() *FoldState {
			st, err := NewFoldState(cols, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		cur, parts := fresh(), []*FoldState{}
		for r, row := range data {
			op := byte(0)
			if r < len(ops) {
				op = ops[r] % 8
			}
			switch op {
			case 5: // restore the running state from its snapshot
				var buf bytes.Buffer
				if err := cur.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				st, err := ReadFoldState(&buf)
				if err != nil {
					t.Fatal(err)
				}
				checkCeilings(t, st, "restored")
				cur = st
			case 6: // park the running state, carry on in a fresh one
				parts, cur = append(parts, cur), fresh()
			case 7: // merge the last parked state back, direction by row parity
				if n := len(parts); n > 0 {
					dst, src := cur, parts[n-1]
					if r%2 == 1 {
						dst, src = src, dst
					}
					if err := Merge(dst, src); err != nil {
						t.Fatal(err)
					}
					checkCeilings(t, dst, "merged")
					cur, parts = dst, parts[:n-1]
				}
			}
			cur.FoldRow(r, row)
			oracle.foldRow(r, row)
		}
		for _, p := range parts {
			if err := Merge(cur, p); err != nil {
				t.Fatal(err)
			}
		}
		checkCeilings(t, cur, "final")
		for i, v := range oracle.work {
			if cur.work[i] != v {
				t.Fatalf("minimum %d (column %d, hash %d) = %#x, sweep says %#x", i, i/k, i%k, cur.work[i], v)
			}
		}
	})
}
