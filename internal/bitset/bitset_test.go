package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s := newSet(130)
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.set(i)
		for j := 0; j < 130; j++ {
			if s.Test(j) != (j == i) {
				t.Fatalf("after set(%d): Test(%d) = %v", i, j, s.Test(j))
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newSet(10)
	for _, fn := range []func(){
		func() { s.set(10) },
		func() { s.set(-1) },
		func() { s.Test(10) },
		func() { s.Test(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("newSet(-1) did not panic")
		}
	}()
	newSet(-1)
}

func TestFromSortedAndCount(t *testing.T) {
	s := FromSorted(100, []int32{3, 50, 99})
	if n := CountWords(s.words); n != 3 {
		t.Errorf("CountWords = %d", n)
	}
	for _, i := range []int{3, 50, 99} {
		if !s.Test(i) {
			t.Errorf("bit %d missing", i)
		}
	}
	if s.Test(4) {
		t.Error("stray bit")
	}
}

func TestQuickMatchesMapSet(t *testing.T) {
	f := func(idxA, idxB []uint8) bool {
		const n = 200
		ma, mb := map[int]bool{}, map[int]bool{}
		a, b := newSet(n), newSet(n)
		for _, i := range idxA {
			a.set(int(i) % n)
			ma[int(i)%n] = true
		}
		for _, i := range idxB {
			b.set(int(i) % n)
			mb[int(i)%n] = true
		}
		if CountWords(a.words) != len(ma) || CountWords(b.words) != len(mb) {
			return false
		}
		inter := 0
		for i := 0; i < n; i++ {
			if a.Test(i) != ma[i] || b.Test(i) != mb[i] {
				return false
			}
			if ma[i] && mb[i] {
				inter++
			}
		}
		return AndCountWords(a.words, b.words) == inter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWordKernels: the unrolled word-slice kernels must agree with a
// naive per-bit reference on lengths that cover the unrolled body, the
// remainder loop, and empty input.
func TestWordKernels(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64} {
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		wantCount, wantAnd := 0, 0
		for i := range a {
			for bit := 0; bit < 64; bit++ {
				mask := uint64(1) << uint(bit)
				av, bv := a[i]&mask != 0, b[i]&mask != 0
				if av {
					wantCount++
				}
				if av && bv {
					wantAnd++
				}
			}
		}
		if got := CountWords(a); got != wantCount {
			t.Errorf("n=%d: CountWords = %d, want %d", n, got, wantCount)
		}
		if got := AndCountWords(a, b); got != wantAnd {
			t.Errorf("n=%d: AndCountWords = %d, want %d", n, got, wantAnd)
		}
	}
}
