package kminhash

import (
	"bytes"
	"testing"

	"assocmine/internal/testutil"
)

// TestMergeThroughCodecProperty is the cross-process merge property the
// scale-out executor relies on: Merge(decode(encode(a)), b) equals the
// in-memory Merge(a, b) — the KMF1 codec is transparent to merging.
// The heap arrays themselves are order-sensitive, so equality is
// checked on Finish(), which sorts: identical multisets must yield
// identical sketches. Randomised over dimensions, row splits, and
// sparsity.
func TestMergeThroughCodecProperty(t *testing.T) {
	next := testutil.SplitMix64(0xc0de ^ 0xffff)
	for trial := 0; trial < 40; trial++ {
		m := 1 + int(next()%40)
		k := 1 + int(next()%16)
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
					if next()%4 == 0 {
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
		if gs.K != ws.K || len(gs.Sigs) != len(ws.Sigs) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for c := range ws.Sigs {
			if gs.ColSizes[c] != ws.ColSizes[c] || len(gs.Sigs[c]) != len(ws.Sigs[c]) {
				t.Fatalf("trial %d: column %d shape differs after codec round-trip", trial, c)
			}
			for i := range ws.Sigs[c] {
				if gs.Sigs[c][i] != ws.Sigs[c][i] {
					t.Fatalf("trial %d: column %d value %d differs after codec round-trip", trial, c, i)
				}
			}
		}
	}
}
