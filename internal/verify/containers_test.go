package verify

import (
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// aroundT builds a rows × cols matrix whose columns cycle through every
// container and pair path: empty, T-1, T and T+1 ones, a random count up
// to 2T, and a third of the rows. The sparse columns draw their rows
// from one pool spread over the matrix, so their lists meet each other.
func aroundT(rng *hashing.SplitMix64, rows, cols int) *matrix.Matrix {
	t := listBelow((rows + 63) / 64)
	pool := min(rows, 4*t+4)
	stride := rows / pool
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		ones := 0
		switch k := c % 6; k {
		case 1, 2, 3:
			ones = max(0, t-2+k)
		case 4:
			ones = rng.Intn(2*t + 1)
		case 5:
			for r := 0; r < rows; r++ {
				if rng.Intn(3) == 0 {
					b.Set(r, c)
				}
			}
		}
		for _, x := range rng.Perm(pool)[:min(ones, pool)] {
			b.Set(x*stride, c)
		}
	}
	return b.Build()
}

// span returns the columns lo, lo+1, ..., hi-1.
func span(lo, hi int32) []int32 {
	var s []int32
	for c := lo; c < hi; c++ {
		s = append(s, c)
	}
	return s
}

// containerBytes is what a batch's containers occupy: the bitmaps it
// handed out, a list the batch allocated by its capacity, a list lent
// by the source by its length.
func containerBytes(cs *columns, lent bool) int64 {
	n := int64(len(cs.slab)) * 8
	for s, l := range cs.list {
		switch {
		case cs.bits[s] != nil:
		case lent:
			n += int64(len(l)) * 4
		default:
			n += int64(cap(l)) * 4
		}
	}
	return n
}

// TestPackedContainerBytes: whatever the mix of lists and bitmaps, and
// whether the lists are lent or filled by a scan, a batch's containers
// never occupy more than the len(cols) × words × 8 bytes the all-bitmap
// arena did — the bound arenaCols and autoPack budget for — the slab
// never reserves more than that arena for the largest batch so far, and
// every column is a list exactly when it has fewer than T ones.
func TestPackedContainerBytes(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	for _, rows := range []int{64, 600, 4096, 20_000} {
		m := aroundT(rng, rows, 48)
		words := (rows + 63) / 64
		slot := make([]int32, m.NumCols())
		for i := range slot {
			slot[i] = -1
		}
		for _, src := range []matrix.RowSource{m.Stream(), streamOnly{m.Stream()}} {
			_, lent := src.(matrix.ColumnLister)
			cs := columns{words: words}
			largest := 0
			// Three batches through one columns value: the bitmaps of
			// one batch are reused by the next.
			for _, cols := range [][]int32{span(0, 8), span(8, 11), span(11, 48)} {
				for s, c := range cols {
					slot[c] = int32(s)
				}
				if err := cs.fill(src, slot, cols); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("rows=%d lent=%v batch of %d", rows, lent, len(cols))
				if got, bound := containerBytes(&cs, lent), int64(len(cols)*words*8); got > bound {
					t.Errorf("%s: containers hold %d bytes, over the arena's %d", label, got, bound)
				}
				if largest = max(largest, len(cols)); cap(cs.slab) > largest*words {
					t.Errorf("%s: slab reserves %d words, over the largest arena's %d", label, cap(cs.slab), largest*words)
				}
				for s, c := range cols {
					ones := len(m.Column(int(c)))
					if isList := cs.bits[s] == nil; isList != (ones < listBelow(words)) {
						t.Errorf("%s: column %d with %d ones is a list = %v (T = %d)", label, c, ones, isList, listBelow(words))
					}
					if cs.ones[s] != int64(ones) {
						t.Errorf("%s: column %d counts %d ones, has %d", label, c, cs.ones[s], ones)
					}
					slot[c] = -1
				}
			}
		}
	}
}

// FuzzPackedContainers: over random column lengths around T, every
// budget and worker count and both ways of loading columns, the packed
// kernel reproduces Exact bit for bit, and PackedWords counts exactly
// the pairs whose columns are both bitmaps.
func FuzzPackedContainers(f *testing.F) {
	f.Add(uint64(1), uint16(4096), uint8(40), uint16(0), uint8(1))
	f.Add(uint64(2), uint16(600), uint8(9), uint16(300), uint8(3))
	f.Add(uint64(3), uint16(20000), uint8(25), uint16(9000), uint8(2))
	f.Add(uint64(4), uint16(1), uint8(3), uint16(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, cols uint8, budget uint16, workers uint8) {
		n := 1 + int(rows)%30_000
		m := 2 + int(cols)%48
		rng := hashing.NewSplitMix64(seed)
		mat := aroundT(rng, n, m)
		cand := randomCandidates(rng, m, 1+rng.Intn(120))
		threshold := float64(rng.Intn(101)) / 100
		want, wantStats, err := Exact(mat.Stream(), cand, threshold)
		if err != nil {
			t.Fatal(err)
		}
		opt := PackedOptions{
			Budget:  Budget{Bytes: int64(budget) * 8, Dir: t.TempDir()},
			Workers: 1 + int(workers)%4,
		}
		for _, src := range []matrix.RowSource{mat.Stream(), streamOnly{mat.Stream()}} {
			got, st, err := ExactPacked(src, cand, threshold, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("packed output differs:\npacked %v\nexact  %v", got, want)
			}
			if st.Touches != wantStats.Touches || st.Out != wantStats.Out {
				t.Fatalf("packed Stats %+v, exact %+v", st, wantStats)
			}
			if st.PackedBatches > 0 {
				if words := wantPackedWords(t, src, cand); st.PackedWords != words {
					t.Fatalf("%d packed words, want %d", st.PackedWords, words)
				}
			}
		}
	})
}
