package minhash

import (
	"bytes"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// streamFixture is a random rows x cols source, one entry in 4.
func streamFixture(rows, cols int, seed uint64) *matrix.SliceSource {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]int32, rows)
	for r := range out {
		var row []int32
		for c := 0; c < cols; c++ {
			if rng.Intn(4) == 0 {
				row = append(row, int32(c))
			}
		}
		out[r] = row
	}
	return &matrix.SliceSource{Cols: cols, Rows: out}
}

func TestComputeStreamBadK(t *testing.T) {
	if _, err := NewFoldState(5, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestComputeStreamEmptyColumns: untouched columns keep the sentinel.
func TestComputeStreamEmptyColumns(t *testing.T) {
	src := &matrix.SliceSource{Cols: 5, Rows: [][]int32{{0, 2}, {0}, {}}}
	sig, err := Compute(src, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < sig.K; l++ {
		for _, c := range []int{1, 3, 4} {
			if sig.Value(l, c) != Empty {
				t.Fatalf("empty column %d has value at hash %d", c, l)
			}
		}
	}
}

// TestComputeStreamZeroRows: a 0-row source yields all-sentinel
// signatures.
func TestComputeStreamZeroRows(t *testing.T) {
	sig, err := Compute(&matrix.SliceSource{Cols: 6}, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Vals) != 30 {
		t.Fatalf("%d values, want 30", len(sig.Vals))
	}
	for i, v := range sig.Vals {
		if v != Empty {
			t.Fatalf("Vals[%d] = %d, want sentinel", i, v)
		}
	}
}

// Clone returns an independent copy of the state.
func (s *FoldState) Clone() *FoldState {
	c, _ := NewFoldState(s.m, s.k, s.seed)
	copy(c.work, s.work)
	c.rows = s.rows
	return c
}

// foldParts folds the fixture's rows into p states according to the
// random assignment part[r], preserving global row ids.
func foldParts(t *testing.T, src *matrix.SliceSource, part []int, p, k int, seed uint64) []*FoldState {
	t.Helper()
	states := make([]*FoldState, p)
	for i := range states {
		st, err := NewFoldState(src.Cols, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	for r, cols := range src.Rows {
		states[part[r]].FoldRow(r, cols)
	}
	return states
}

func statesEqual(a, b *FoldState) bool {
	return a.k == b.k && a.m == b.m && a.seed == b.seed && a.rows == b.rows &&
		reflect.DeepEqual(a.work, b.work)
}

// TestMergeAlgebra: under randomized row partitions, Merge is
// commutative and associative on the raw state, merging with an empty
// state is the identity, and the full merge reproduces Compute over all
// rows bit for bit.
func TestMergeAlgebra(t *testing.T) {
	src := streamFixture(400, 40, 23)
	const k, seed = 12, 99
	want, err := Compute(src, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(41)
	for trial := 0; trial < 8; trial++ {
		p := 2 + rng.Intn(4)
		part := make([]int, len(src.Rows))
		for r := range part {
			part[r] = rng.Intn(p)
		}
		states := foldParts(t, src, part, p, k, seed)
		a, b := states[0], states[1]

		// Commutativity: a+b == b+a.
		ab, ba := a.Clone(), b.Clone()
		if err := Merge(ab, b); err != nil {
			t.Fatal(err)
		}
		if err := Merge(ba, a); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(ab, ba) {
			t.Fatalf("trial %d: merge not commutative", trial)
		}

		// Associativity: (a+b)+c == a+(b+c), with c the rest of the parts.
		if p > 2 {
			c := states[2]
			left := a.Clone()
			if err := Merge(left, b); err != nil {
				t.Fatal(err)
			}
			if err := Merge(left, c); err != nil {
				t.Fatal(err)
			}
			bc := b.Clone()
			if err := Merge(bc, c); err != nil {
				t.Fatal(err)
			}
			right := a.Clone()
			if err := Merge(right, bc); err != nil {
				t.Fatal(err)
			}
			if !statesEqual(left, right) {
				t.Fatalf("trial %d: merge not associative", trial)
			}
		}

		// Identity: a + empty == a, empty + a == a.
		empty, err := NewFoldState(src.Cols, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		id := a.Clone()
		if err := Merge(id, empty); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(id, a) {
			t.Fatalf("trial %d: merge with empty is not the identity", trial)
		}
		id2 := empty.Clone()
		if err := Merge(id2, a); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(id2, a) {
			t.Fatalf("trial %d: empty merged with a differs from a", trial)
		}

		// Totality: merging every part reproduces the batch signatures.
		total := states[0].Clone()
		for _, st := range states[1:] {
			if err := Merge(total, st); err != nil {
				t.Fatal(err)
			}
		}
		if total.Rows() != int64(len(src.Rows)) {
			t.Fatalf("trial %d: merged rows = %d, want %d", trial, total.Rows(), len(src.Rows))
		}
		got := total.Finish()
		if !reflect.DeepEqual(got.Vals, want.Vals) {
			t.Fatalf("trial %d: merged signatures differ from batch", trial)
		}
	}
}

// TestMergeMismatch: states with different parameters refuse to merge.
func TestMergeMismatch(t *testing.T) {
	a, _ := NewFoldState(10, 4, 1)
	for _, b := range []*FoldState{
		func() *FoldState { s, _ := NewFoldState(10, 5, 1); return s }(),
		func() *FoldState { s, _ := NewFoldState(11, 4, 1); return s }(),
		func() *FoldState { s, _ := NewFoldState(10, 4, 2); return s }(),
	} {
		if err := Merge(a, b); err == nil {
			t.Errorf("merge of mismatched states (k=%d m=%d seed=%d) accepted", b.k, b.m, b.seed)
		}
	}
}

// TestFoldStateResume: chunked folding — with a snapshot round-trip in
// the middle — matches Compute bit for bit, and Finish leaves the state
// usable for further folding.
func TestFoldStateResume(t *testing.T) {
	src := streamFixture(300, 30, 7)
	const k, seed = 8, 13
	want, err := Compute(src, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewFoldState(src.Cols, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for r, cols := range src.Rows {
		if r == 150 {
			// Mid-ingest snapshot/restore; the resumed state must be
			// indistinguishable from the uninterrupted one.
			var buf bytes.Buffer
			if err := st.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			st, err = ReadFoldState(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// An early Finish must not disturb the state.
			_ = st.Finish()
		}
		st.FoldRow(r, cols)
	}
	if got := st.Finish(); !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Fatal("resumed fold differs from batch")
	}
	if st.Rows() != 300 {
		t.Fatalf("rows = %d, want 300", st.Rows())
	}
}

// TestFoldStateCodecRoundTrip: decode(encode(s)) == s for empty,
// partial, and zero-column states; corrupt magic and truncated payloads
// are rejected.
func TestFoldStateCodecRoundTrip(t *testing.T) {
	src := streamFixture(120, 25, 3)
	st, err := NewFoldState(src.Cols, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	states := []*FoldState{st.Clone()} // empty
	for r, cols := range src.Rows {
		st.FoldRow(r, cols)
	}
	states = append(states, st) // populated
	zc, err := NewFoldState(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	states = append(states, zc) // zero columns
	for i, s := range states {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		enc := buf.Bytes()
		got, err := ReadFoldState(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if !statesEqual(got, s) {
			t.Fatalf("state %d: round trip differs", i)
		}
		if len(enc) > 4 {
			if _, err := ReadFoldState(bytes.NewReader(enc[:len(enc)-3])); err == nil {
				t.Fatalf("state %d: truncated payload accepted", i)
			}
		}
		bad := append([]byte("XXXX"), enc[4:]...)
		if _, err := ReadFoldState(bytes.NewReader(bad)); err == nil {
			t.Fatalf("state %d: bad magic accepted", i)
		}
	}
}
