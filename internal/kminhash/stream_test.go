package kminhash

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
			if rng.Intn(5) == 0 {
				row = append(row, int32(c))
			}
		}
		out[r] = row
	}
	return &matrix.SliceSource{Cols: cols, Rows: out}
}

// computeStream is the streamed batch compute: a fresh state, one
// FoldStream pass, Finish.
func computeStream(src matrix.RowSource, k int, seed uint64, workers int) (*Sketches, int64, error) {
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
// reproduce the serial sketches exactly — signatures and column sizes
// for any worker count (bottom-k union is partition-independent), and
// the order-dependent Updates counter for the one-worker sequential
// fold. For workers > 1 the round-robin deal is deterministic, so the
// summed counter must at least be reproducible run to run.
func TestComputeStreamBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := streamFixture(900, 70, 17)
	const k = 16
	want, err := Compute(src, k, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5, 8, 100} {
		got, shards, err := computeStream(src, k, 9, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// One worker folds rows straight off the scan; only a dealt
		// pass copies rows into shards.
		if (shards > 0) != (workers > 1) {
			t.Errorf("workers=%d: %d shards streamed", workers, shards)
		}
		if workers == 1 && got.Updates != want.Updates {
			t.Errorf("workers=1: Updates = %d, want %d", got.Updates, want.Updates)
		}
		if workers > 1 {
			again, _, err := computeStream(src, k, 9, workers)
			if err != nil {
				t.Fatalf("workers=%d rerun: %v", workers, err)
			}
			if again.Updates != got.Updates {
				t.Errorf("workers=%d: Updates not deterministic: %d then %d", workers, got.Updates, again.Updates)
			}
		}
		for c := range want.Sigs {
			if got.ColSizes[c] != want.ColSizes[c] {
				t.Fatalf("workers=%d: ColSizes[%d] = %d, want %d", workers, c, got.ColSizes[c], want.ColSizes[c])
			}
			if len(got.Sigs[c]) != len(want.Sigs[c]) {
				t.Fatalf("workers=%d: col %d sketch has %d values, want %d", workers, c, len(got.Sigs[c]), len(want.Sigs[c]))
			}
			for i := range want.Sigs[c] {
				if got.Sigs[c][i] != want.Sigs[c][i] {
					t.Fatalf("workers=%d: col %d value %d differs", workers, c, i)
				}
			}
		}
	}
}

// TestComputeStreamMoreWorkersThanShards: a tiny source fits one shard,
// so most consumers drain empty channels and contribute empty states to
// the merge — the result must still match the serial sketches.
func TestComputeStreamMoreWorkersThanShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := streamFixture(9, 12, 3)
	const k = 4
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
	for c := range want.Sigs {
		if got.ColSizes[c] != want.ColSizes[c] {
			t.Fatalf("ColSizes[%d] = %d, want %d", c, got.ColSizes[c], want.ColSizes[c])
		}
		for i := range want.Sigs[c] {
			if got.Sigs[c][i] != want.Sigs[c][i] {
				t.Fatalf("col %d value %d differs", c, i)
			}
		}
	}
}

// TestComputeStreamZeroRows: a 0-row source streams zero shards and
// yields empty sketches with zeroed sizes, for any worker count.
func TestComputeStreamZeroRows(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := &matrix.SliceSource{Cols: 7, Rows: nil}
	for _, workers := range []int{1, 4} {
		got, shards, err := computeStream(src, 5, 11, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if shards != 0 {
			t.Errorf("workers=%d: streamed %d shards, want 0", workers, shards)
		}
		if got.Updates != 0 {
			t.Errorf("workers=%d: Updates = %d, want 0", workers, got.Updates)
		}
		for c := 0; c < 7; c++ {
			if got.ColSizes[c] != 0 || len(got.Sigs[c]) != 0 {
				t.Errorf("workers=%d: column %d not empty (size %d, %d values)",
					workers, c, got.ColSizes[c], len(got.Sigs[c]))
			}
		}
	}
}

func TestComputeStreamBadK(t *testing.T) {
	if _, _, err := computeStream(streamFixture(5, 5, 1), -1, 1, 2); err == nil {
		t.Error("k=-1 accepted")
	}
}
