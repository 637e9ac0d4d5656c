package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
		func() { s.Clear(-1) },
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
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromSortedAndCount(t *testing.T) {
	s := FromSorted(100, []int32{3, 50, 99})
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
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

func TestAndCountOrHamming(t *testing.T) {
	a := FromSorted(70, []int32{0, 10, 64, 69})
	b := FromSorted(70, []int32{10, 20, 64})
	if got := a.AndCount(b); got != 2 {
		t.Errorf("AndCount = %d", got)
	}
	if got := a.HammingDistance(b); got != 3 { // {0,69} vs {20}
		t.Errorf("Hamming = %d", got)
	}
	a.OrInPlace(b)
	if a.Count() != 5 {
		t.Errorf("union count = %d", a.Count())
	}
	defer func() {
		if recover() == nil {
			t.Error("size-mismatched AndCount did not panic")
		}
	}()
	a.AndCount(New(10))
}

func TestQuickMatchesMapSet(t *testing.T) {
	f := func(idxA, idxB []uint8) bool {
		const n = 200
		ma, mb := map[int]bool{}, map[int]bool{}
		a, b := New(n), New(n)
		for _, i := range idxA {
			a.Set(int(i) % n)
			ma[int(i)%n] = true
		}
		for _, i := range idxB {
			b.Set(int(i) % n)
			mb[int(i)%n] = true
		}
		if a.Count() != len(ma) || b.Count() != len(mb) {
			return false
		}
		inter, ham := 0, 0
		for i := 0; i < n; i++ {
			if ma[i] && mb[i] {
				inter++
			}
			if ma[i] != mb[i] {
				ham++
			}
		}
		return a.AndCount(b) == inter && a.HammingDistance(b) == ham
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
		wantCount, wantAnd, wantXor := 0, 0, 0
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
				if av != bv {
					wantXor++
				}
			}
		}
		if got := CountWords(a); got != wantCount {
			t.Errorf("n=%d: CountWords = %d, want %d", n, got, wantCount)
		}
		if got := AndCountWords(a, b); got != wantAnd {
			t.Errorf("n=%d: AndCountWords = %d, want %d", n, got, wantAnd)
		}
		if got := XorCountWords(a, b); got != wantXor {
			t.Errorf("n=%d: XorCountWords = %d, want %d", n, got, wantXor)
		}
	}
}
