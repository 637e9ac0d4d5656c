package verify

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
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

// containerBytes is what the containers occupy: a scan's bitmaps by
// the slab handed out, a lent column's bitmap by its words, a list filled
// by a scan by its capacity, a list lent by the source by its length.
func containerBytes(cs *columns, lent bool) int64 {
	n := int64(len(cs.slab)) * 8
	for s, l := range cs.list {
		switch {
		case cs.bits[s] != nil:
			if lent {
				n += int64(len(cs.bits[s])) * 8
			}
		case lent:
			n += int64(len(l)) * 4
		default:
			n += int64(cap(l)) * 4
		}
	}
	return n
}

// TestPackedContainerBytes: whatever the mix of lists and bitmaps, and
// whether the lists are lent or filled by a scan, the containers never
// occupy more than the columns × words × 8 bytes the all-bitmap arena
// did — the bound AutoPack budgets for — the slab never reserves more
// than that arena, and every column is a list exactly when it has fewer
// than T ones.
func TestPackedContainerBytes(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	for _, rows := range []int{64, 600, 4096, 20_000} {
		m := aroundT(rng, rows, 48)
		words := (rows + 63) / 64
		// Components of four neighbouring columns.
		var cand []pairs.Scored
		for c := int32(0); c+1 < 48; c++ {
			if c%4 != 3 {
				cand = append(cand, pairs.Scored{Pair: pairs.Make(c, c+1)})
			}
		}
		for _, src := range []matrix.RowSource{m.Stream(), streamOnly{m.Stream()}} {
			_, lent := src.(matrix.ColumnLister)
			cs := newColumns(src, words, cand)
			if err := cs.fill(src); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("rows=%d lent=%v", rows, lent)
			arena := len(cs.cols) * words
			if got := containerBytes(cs, lent); got > int64(arena*8) {
				t.Errorf("%s: containers hold %d bytes, over the arena's %d", label, got, arena*8)
			}
			if cap(cs.slab) > arena {
				t.Errorf("%s: slab reserves %d words, over the arena's %d", label, cap(cs.slab), arena)
			}
			for s, c := range cs.cols {
				ones := len(m.Column(int(c)))
				if isList := cs.bits[s] == nil; isList != (ones < listBelow(words)) {
					t.Errorf("%s: column %d with %d ones is a list = %v (T = %d)", label, c, ones, isList, listBelow(words))
				}
				if cs.ones[s] != int64(ones) {
					t.Errorf("%s: column %d counts %d ones, has %d", label, c, cs.ones[s], ones)
				}
			}
		}
	}
}

// TestLendAllocatesItsBlocks: a lent fill gives each ranked component
// one block of ⌈|U|/64⌉ words a bitmap, whatever the components ranked
// before it. The first ranked component here is wide — two columns over
// every other row, so |U| is half of n — and a hundred narrow ones
// follow, two bitmaps over 1.5·T rows each; what the fill allocates
// stays within the blocks, the lists, and the fixed scratch the ranking
// takes (the component links, the union and its prefix counts, the
// slots), where reserving the wide component's words for every bitmap
// to come would take 0.8 MB.
func TestLendAllocatesItsBlocks(t *testing.T) {
	const rows, narrow = 1 << 16, 100
	words := (rows + 63) / 64
	T := listBelow(words)
	cols := 2 + 2*narrow
	b := matrix.NewBuilder(rows, cols)
	for r := 0; r < rows; r += 2 {
		b.Set(r, 0)
		if r%4 == 0 {
			b.Set(r, 1)
		}
	}
	cand := []pairs.Scored{{Pair: pairs.Make(0, 1)}}
	wantWords := 2 * wordsOf(rows/2)
	for g := 1; g <= narrow; g++ {
		base := g * 2 * T
		for x := 0; x < T; x++ {
			b.Set(base+x, 2*g)
			b.Set(base+T/2+x, 2*g+1)
		}
		cand = append(cand, pairs.Scored{Pair: pairs.Make(int32(2*g), int32(2*g+1))})
		wantWords += 2 * wordsOf(int32(T+T/2))
	}
	src := b.Build().Stream()
	cs := newColumns(src, words, cand)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := cs.fill(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := 0
	for s, bits := range cs.bits {
		if bits == nil {
			t.Fatalf("column %d is a list", cs.cols[s])
		}
		got += len(bits)
	}
	if got != wantWords {
		t.Fatalf("bitmaps hold %d words, want Σ nb·⌈|U|/64⌉ = %d", got, wantWords)
	}
	slots := len(cs.cols)
	bound := uint64(8*wantWords + 4*len(cs.rows) + 16*cols + 12*words + 56*slots + 4096)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("the fill allocated %d bytes, over the %d its blocks, lists and scratch take", grew, bound)
	}
}

// componentFixture builds a rows × cols matrix whose columns are cut
// into groups of one to eight neighbours, each joined into one component
// of the candidate graph by a chain of candidates and a few more pairs
// inside it. The groups' candidates are shuffled together, so a
// component's pairs lie anywhere in the list. Each group takes one
// shape:
//   - lists: every column has fewer than T ones, from a window of rows;
//   - mixed: columns above and below T draw from one window of rows;
//   - one row: every column holds the same single row, or nothing;
//   - every row: two columns split the rows, so the union is all of them;
//   - around T: aroundT's empty, T-1, T, T+1, random and dense columns.
func componentFixture(rng *hashing.SplitMix64, rows, cols int) (*matrix.Matrix, []pairs.Scored) {
	t := listBelow((rows + 63) / 64)
	b := matrix.NewBuilder(rows, cols)
	// fill sets up to ones distinct rows of [lo, lo+span) in column c.
	fill := func(c, lo, span, ones int) {
		for _, x := range rng.Perm(span)[:min(ones, span)] {
			b.Set(lo+x, c)
		}
	}
	var cand []pairs.Scored
	for a := 0; a < cols; {
		g := min(1+rng.Intn(8), cols-a)
		span := 1 + rng.Intn(rows)
		lo := rng.Intn(rows - span + 1)
		switch rng.Intn(5) {
		case 0:
			for c := a; c < a+g && t > 0; c++ {
				fill(c, lo, span, rng.Intn(t))
			}
		case 1:
			for c := a; c < a+g; c++ {
				fill(c, lo, span, rng.Intn(t+1)+t*rng.Intn(2))
			}
		case 2:
			r := rng.Intn(rows)
			for c := a; c < a+g; c++ {
				if rng.Intn(4) > 0 {
					b.Set(r, c)
				}
			}
		case 3:
			for r := 0; r < rows; r++ {
				b.Set(r, a+r%min(g, 2))
			}
			for c := a + 2; c < a+g; c++ {
				fill(c, lo, span, rng.Intn(2*t+2))
			}
		case 4:
			for c := a; c < a+g; c++ {
				switch k := rng.Intn(6); k {
				case 1, 2, 3:
					fill(c, 0, rows, max(0, t-2+k))
				case 4:
					fill(c, 0, rows, rng.Intn(2*t+1))
				case 5:
					for r := 0; r < rows; r++ {
						if rng.Intn(3) == 0 {
							b.Set(r, c)
						}
					}
				}
			}
		}
		for c := a; c+1 < a+g; c++ {
			cand = append(cand, pairs.Scored{Pair: pairs.Make(int32(c), int32(c+1))})
		}
		for e := rng.Intn(g); e > 0; e-- {
			if i, j := a+rng.Intn(g), a+rng.Intn(g); i != j {
				cand = append(cand, pairs.Scored{Pair: pairs.Make(int32(i), int32(j))})
			}
		}
		a += g
	}
	if len(cand) == 0 {
		cand = append(cand, pairs.Scored{Pair: pairs.Make(0, 1)})
	}
	for i := len(cand) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return b.Build(), cand
}

// FuzzPackedContainers: over candidate graphs of several components —
// list-only, mixed, single-row and all-row unions, columns around T —
// every worker count and both ways of loading columns, the packed
// kernel reproduces Exact bit for bit in one batch, and PackedWords
// counts exactly the component words of the pairs whose columns are
// both bitmaps (wantPackedWords).
func FuzzPackedContainers(f *testing.F) {
	f.Add(uint64(1), uint16(4096), uint8(40), uint8(1))
	f.Add(uint64(2), uint16(600), uint8(9), uint8(3))
	f.Add(uint64(3), uint16(20000), uint8(25), uint8(2))
	f.Add(uint64(4), uint16(1), uint8(3), uint8(4))
	f.Add(uint64(5), uint16(0), uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, cols uint8, workers uint8) {
		n := 1 + int(rows)%30_000
		m := 2 + int(cols)%48
		rng := hashing.NewSplitMix64(seed)
		mat, cand := componentFixture(rng, n, m)
		threshold := float64(rng.Intn(101)) / 100
		want, wantStats, err := Exact(mat.Stream(), cand, threshold)
		if err != nil {
			t.Fatal(err)
		}
		opt := PackedOptions{Workers: 1 + int(workers)%4}
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
			if st.PackedBatches != 1 {
				t.Fatalf("packed in %d batches, want 1", st.PackedBatches)
			}
			if words := wantPackedWords(t, src, cand); st.PackedWords != words {
				t.Fatalf("%d packed words, want %d", st.PackedWords, words)
			}
		}
	})
}
