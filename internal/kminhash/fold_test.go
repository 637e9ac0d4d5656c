package kminhash

import (
	"bytes"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// streamFixture is a random rows x cols source, one entry in 5.
func streamFixture(rows, cols int, seed uint64) *matrix.SliceSource {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]int32, rows)
	for r := range out {
		var row []int32
		for c := 0; c < cols; c++ {
			if rng.Intn(5) == 0 {
				row = append(row, int32(c))
			}
		}
		out[r] = row
	}
	return &matrix.SliceSource{Cols: cols, Rows: out}
}

func TestComputeStreamBadK(t *testing.T) {
	if _, err := NewFoldState(5, -1, 1); err == nil {
		t.Error("k=-1 accepted")
	}
}

// TestComputeStreamZeroRows: a 0-row source yields empty sketches with
// zeroed sizes.
func TestComputeStreamZeroRows(t *testing.T) {
	got, err := compute(&matrix.SliceSource{Cols: 7}, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got.Updates != 0 {
		t.Errorf("Updates = %d, want 0", got.Updates)
	}
	for c := 0; c < 7; c++ {
		if got.ColSizes[c] != 0 || len(got.Sigs[c]) != 0 {
			t.Errorf("column %d not empty (size %d, %d values)", c, got.ColSizes[c], len(got.Sigs[c]))
		}
	}
}

// Clone returns an independent copy of the state, heap layouts
// preserved verbatim.
func (s *FoldState) Clone() *FoldState {
	c := &FoldState{
		k:        s.k,
		m:        s.m,
		seed:     s.seed,
		rows:     s.rows,
		updates:  s.updates,
		heaps:    make([][]uint64, s.m),
		colSizes: append([]int(nil), s.colSizes...),
		h:        s.h,
	}
	backing := make([]uint64, s.m*s.k)
	for i, heap := range s.heaps {
		dst := backing[i*s.k : i*s.k : (i+1)*s.k]
		c.heaps[i] = append(dst, heap...)
	}
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

// sketchesEqual compares the canonical sketch content: sorted values
// and column sizes (Updates is order-dependent and compared only where
// a sequential replay is guaranteed).
func sketchesEqual(a, b *Sketches) bool {
	if a.K != b.K || !reflect.DeepEqual(a.ColSizes, b.ColSizes) {
		return false
	}
	for c := range a.Sigs {
		if !reflect.DeepEqual(a.Sigs[c], b.Sigs[c]) {
			return false
		}
	}
	return true
}

func rawStatesEqual(a, b *FoldState) bool {
	if a.k != b.k || a.m != b.m || a.seed != b.seed || a.rows != b.rows ||
		a.updates != b.updates || !reflect.DeepEqual(a.colSizes, b.colSizes) {
		return false
	}
	for c := range a.heaps {
		if !reflect.DeepEqual(a.heaps[c], b.heaps[c]) {
			return false
		}
	}
	return true
}

// TestMergeAlgebra: under randomized row partitions, Merge is
// commutative and associative up to the canonical (Finish) sketch —
// bottom-k heap ARRAYS are insertion-order-dependent, the multiset they
// hold is not — merging with an empty state is the identity on the raw
// state, and the full merge reproduces Compute over all rows.
func TestMergeAlgebra(t *testing.T) {
	src := streamFixture(500, 45, 29)
	const k, seed = 9, 81
	want, err := compute(src, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(43)
	for trial := 0; trial < 8; trial++ {
		p := 2 + rng.Intn(4)
		part := make([]int, len(src.Rows))
		for r := range part {
			part[r] = rng.Intn(p)
		}
		states := foldParts(t, src, part, p, k, seed)
		a, b := states[0], states[1]

		// Commutativity up to canonical content: a+b ~ b+a.
		ab, ba := a.Clone(), b.Clone()
		if err := Merge(ab, b); err != nil {
			t.Fatal(err)
		}
		if err := Merge(ba, a); err != nil {
			t.Fatal(err)
		}
		if !sketchesEqual(ab.Finish(), ba.Finish()) {
			t.Fatalf("trial %d: merge not commutative", trial)
		}
		if ab.Rows() != ba.Rows() || ab.Updates() != ba.Updates() {
			t.Fatalf("trial %d: merged counters not symmetric", trial)
		}

		// Associativity up to canonical content: (a+b)+c ~ a+(b+c).
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
			if !sketchesEqual(left.Finish(), right.Finish()) {
				t.Fatalf("trial %d: merge not associative", trial)
			}
		}

		// Identity: a + empty == a bit for bit, and empty + a ~ a.
		empty, err := NewFoldState(src.Cols, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		id := a.Clone()
		if err := Merge(id, empty); err != nil {
			t.Fatal(err)
		}
		if !rawStatesEqual(id, a) {
			t.Fatalf("trial %d: merge with empty is not the identity", trial)
		}
		id2 := empty.Clone()
		if err := Merge(id2, a); err != nil {
			t.Fatal(err)
		}
		if !sketchesEqual(id2.Finish(), a.Finish()) {
			t.Fatalf("trial %d: empty merged with a differs from a", trial)
		}

		// Totality: merging every part reproduces the batch sketches,
		// updates summing over the parts.
		total := states[0].Clone()
		for _, st := range states[1:] {
			if err := Merge(total, st); err != nil {
				t.Fatal(err)
			}
		}
		if total.Rows() != int64(len(src.Rows)) {
			t.Fatalf("trial %d: merged rows = %d, want %d", trial, total.Rows(), len(src.Rows))
		}
		if !sketchesEqual(total.Finish(), want) {
			t.Fatalf("trial %d: merged sketches differ from batch", trial)
		}
	}
}

// TestMergeEqualsConcatenatedCompute: two sources over disjoint row
// ranges, folded separately and merged, equal Compute over the
// concatenated matrix — the mergeability contract the scale-out
// executor depends on.
func TestMergeEqualsConcatenatedCompute(t *testing.T) {
	first := streamFixture(220, 35, 5)
	second := streamFixture(180, 35, 6)
	concat := &matrix.SliceSource{Cols: 35, Rows: append(append([][]int32{}, first.Rows...), second.Rows...)}
	const k, seed = 7, 31
	want, err := compute(concat, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewFoldState(35, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for r, cols := range first.Rows {
		a.FoldRow(r, cols)
	}
	b, err := NewFoldState(35, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for r, cols := range second.Rows {
		b.FoldRow(len(first.Rows)+r, cols) // global ids continue past the first part
	}
	if err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	got := a.Finish()
	if !sketchesEqual(got, want) {
		t.Fatal("merged sketches differ from Compute over the concatenated matrix")
	}
	if got.Updates != a.Updates() {
		t.Fatalf("Finish updates = %d, state says %d", got.Updates, a.Updates())
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

// TestFoldStateResume: chunked sequential folding with a snapshot
// round-trip in the middle replays bit-identically to Compute —
// including the order-dependent Updates counter, because the snapshot
// stores the heap arrays verbatim.
func TestFoldStateResume(t *testing.T) {
	src := streamFixture(300, 30, 7)
	const k, seed = 6, 13
	want, err := compute(src, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewFoldState(src.Cols, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for r, cols := range src.Rows {
		if r == 150 {
			var buf bytes.Buffer
			if err := st.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			st, err = ReadFoldState(&buf)
			if err != nil {
				t.Fatal(err)
			}
			_ = st.Finish() // an early Finish must not disturb the state
		}
		st.FoldRow(r, cols)
	}
	got := st.Finish()
	if !sketchesEqual(got, want) {
		t.Fatal("resumed fold differs from batch")
	}
	if got.Updates != want.Updates {
		t.Fatalf("resumed Updates = %d, want %d", got.Updates, want.Updates)
	}
	if st.Rows() != 300 {
		t.Fatalf("rows = %d, want 300", st.Rows())
	}
}

// TestFoldStateCodecRoundTrip: decode(encode(s)) == s verbatim for
// empty, partial, and zero-column states; corrupt magic, truncated
// payloads, and heap-invariant violations are rejected.
func TestFoldStateCodecRoundTrip(t *testing.T) {
	src := streamFixture(120, 25, 3)
	st, err := NewFoldState(src.Cols, 5, 77)
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
		if !rawStatesEqual(got, s) {
			t.Fatalf("state %d: round trip differs", i)
		}
		if len(enc) > 44 {
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
