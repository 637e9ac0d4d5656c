package minhash

import (
	"bytes"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// FuzzFoldStateRoundTrip: any byte stream must either parse into a
// valid fold state or error — never panic, and never allocate anywhere
// near the k·m the header claims before the data backs it up. Whatever
// parses must round-trip through WriteTo bit-identically.
func FuzzFoldStateRoundTrip(f *testing.F) {
	st, err := NewFoldState(5, 3, 42)
	if err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := st.Snapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	st.FoldRow(0, []int32{0, 2, 4})
	st.FoldRow(1, []int32{1})
	var populated bytes.Buffer
	if err := st.Snapshot(&populated); err != nil {
		f.Fatal(err)
	}
	f.Add(populated.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("AMF1"))
	// Header claiming 2^17 x 2^17 values with no data behind it.
	hostile := append([]byte("AMF1"),
		0, 0, 2, 0, 0, 0, 0, 0,
		0, 0, 2, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, 0,
		9, 0, 0, 0, 0, 0, 0, 0)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadFoldState(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(st.work) != st.k*st.m {
			t.Fatalf("parsed %d values for k=%d m=%d", len(st.work), st.k, st.m)
		}
		var out bytes.Buffer
		if err := st.Snapshot(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		st2, err := ReadFoldState(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !statesEqual(st, st2) {
			t.Fatal("round trip changed the state")
		}
	})
}

// FuzzMergeVsBatch: for a random matrix and a random row split, folding
// the two halves separately and merging equals the batch Compute — the
// merge algebra holds at every split point, shard boundaries included.
func FuzzMergeVsBatch(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(10), uint16(4), uint16(13))
	f.Add(uint64(7), uint16(600), uint16(20), uint16(6), uint16(512)) // split on a shard boundary
	f.Add(uint64(9), uint16(3), uint16(5), uint16(2), uint16(0))      // empty first half
	f.Fuzz(func(t *testing.T, seed uint64, rowsU, colsU, kU, splitU uint16) {
		rows := int(rowsU % 700)
		cols := 1 + int(colsU%40)
		k := 1 + int(kU%10)
		split := 0
		if rows > 0 {
			split = int(splitU) % (rows + 1)
		}
		rng := hashing.NewSplitMix64(seed)
		data := make([][]int32, rows)
		for r := range data {
			var row []int32
			for c := 0; c < cols; c++ {
				if rng.Intn(4) == 0 {
					row = append(row, int32(c))
				}
			}
			data[r] = row
		}
		src := &matrix.SliceSource{Cols: cols, Rows: data}
		want, err := compute(src, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewFoldState(cols, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewFoldState(cols, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		for r, colsRow := range data {
			if r < split {
				a.FoldRow(r, colsRow)
			} else {
				b.FoldRow(r, colsRow)
			}
		}
		if err := Merge(a, b); err != nil {
			t.Fatal(err)
		}
		if got := a.Finish(); !reflect.DeepEqual(got.Vals, want.Vals) {
			t.Fatalf("split %d/%d: merged signatures differ from batch", split, rows)
		}
	})
}
