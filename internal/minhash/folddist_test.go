package minhash

import (
	"bytes"
	"testing"

	"assocmine/internal/testutil"
)

// TestMergeThroughCodecProperty is the cross-process merge property the
// scale-out executor relies on: Merge(decode(encode(a)), b) equals the
// in-memory Merge(a, b) — the AMF1 codec is transparent to merging.
// Randomised over dimensions, row splits, and sparsity.
func TestMergeThroughCodecProperty(t *testing.T) {
	next := testutil.SplitMix64(0xd15f)
	for trial := 0; trial < 40; trial++ {
		m := 1 + int(next()%40)
		k := 1 + int(next()%24)
		seed := next()
		rowsA := int(next() % 60)
		rowsB := int(next() % 60)
		fold := func(base, rows int) *FoldState {
			s, err := NewFoldState(m, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]int32, 0, 8)
			for r := 0; r < rows; r++ {
				cols = cols[:0]
				for c := 0; c < m; c++ {
					if next()%5 == 0 {
						cols = append(cols, int32(c))
					}
				}
				s.FoldRow(base+r, cols)
			}
			return s
		}
		a := fold(0, rowsA)
		b := fold(rowsA, rowsB)

		want := a.Clone()
		if err := Merge(want, b); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadFoldState(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := Merge(decoded, b); err != nil {
			t.Fatal(err)
		}

		if decoded.Rows() != want.Rows() {
			t.Fatalf("trial %d: rows %d, want %d", trial, decoded.Rows(), want.Rows())
		}
		gs, ws := decoded.Finish(), want.Finish()
		if gs.K != ws.K || gs.M != ws.M {
			t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, gs.K, gs.M, ws.K, ws.M)
		}
		for i := range ws.Vals {
			if gs.Vals[i] != ws.Vals[i] {
				t.Fatalf("trial %d: value %d differs after codec round-trip", trial, i)
			}
		}
	}
}
