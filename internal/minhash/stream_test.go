package minhash

import (
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

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

// computeStream is the streamed batch compute: a fresh state, one
// FoldStream pass, Finish.
func computeStream(src matrix.RowSource, k int, seed uint64, workers int) (*Signatures, int64, error) {
	st, err := NewFoldState(src.NumCols(), k, seed)
	if err != nil {
		return nil, 0, err
	}
	shards, err := FoldStream(src, st, workers)
	if err != nil {
		return nil, shards, err
	}
	return st.Finish(), shards, nil
}

// TestComputeStreamBitIdentical: the merge-based streamed driver must
// reproduce the serial signatures exactly for any worker count,
// including worker counts above k (pointwise min is
// partition-independent).
func TestComputeStreamBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := streamFixture(700, 60, 11)
	const k = 24
	want, err := Compute(src, k, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, k + 7} {
		got, shards, err := computeStream(src, k, 5, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// One worker folds rows straight off the scan; only a dealt
		// pass copies rows into shards.
		if (shards > 0) != (workers > 1) {
			t.Errorf("workers=%d: %d shards streamed", workers, shards)
		}
		if got.K != want.K || got.M != want.M {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, got.K, got.M, want.K, want.M)
		}
		for i := range want.Vals {
			if got.Vals[i] != want.Vals[i] {
				t.Fatalf("workers=%d: Vals[%d] = %d, want %d", workers, i, got.Vals[i], want.Vals[i])
			}
		}
	}
}

// TestComputeStreamEmptyColumns: untouched columns keep the sentinel.
func TestComputeStreamEmptyColumns(t *testing.T) {
	src := &matrix.SliceSource{Cols: 5, Rows: [][]int32{{0, 2}, {0}, {}}}
	sig, _, err := computeStream(src, 8, 3, 4)
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

// TestComputeStreamMoreWorkersThanShards: a tiny source fits one shard,
// so most consumers drain empty channels and contribute empty states to
// the merge — the result must still match the serial signatures.
func TestComputeStreamMoreWorkersThanShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := streamFixture(9, 12, 3)
	const k = 6
	want, err := Compute(src, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, shards, err := computeStream(src, k, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 1 {
		t.Fatalf("streamed %d shards, want 1", shards)
	}
	for i := range want.Vals {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("Vals[%d] = %d, want %d", i, got.Vals[i], want.Vals[i])
		}
	}
}

// TestComputeStreamZeroRows: a 0-row source streams zero shards and
// yields all-sentinel signatures, for any worker count.
func TestComputeStreamZeroRows(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := &matrix.SliceSource{Cols: 6, Rows: nil}
	for _, workers := range []int{1, 4} {
		sig, shards, err := computeStream(src, 5, 11, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if shards != 0 {
			t.Errorf("workers=%d: streamed %d shards, want 0", workers, shards)
		}
		for i, v := range sig.Vals {
			if v != Empty {
				t.Fatalf("workers=%d: Vals[%d] = %d, want sentinel", workers, i, v)
			}
		}
	}
}

func TestComputeStreamBadK(t *testing.T) {
	if _, _, err := computeStream(streamFixture(5, 5, 1), 0, 1, 2); err == nil {
		t.Error("k=0 accepted")
	}
}
