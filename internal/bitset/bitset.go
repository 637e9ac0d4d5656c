// Package bitset provides a fixed-size dense bit vector and the raw
// word-slice popcount kernels underneath it. Hamming-LSH uses the Set
// type to represent columns inside the density window (1/t, (t-1)/t) —
// such columns are at least 1/t dense, so a bitmap is both smaller and
// faster to probe than a sorted index list — and the packed
// verification kernel uses the word-slice functions directly over its
// column arena.
package bitset

import (
	"fmt"
	"math/bits"
)

// CountWords returns the number of set bits across the words. The loop
// is unrolled by four with the bounds check hoisted, so the body is a
// straight run of POPCNT-class instructions.
func CountWords(w []uint64) int {
	total := 0
	i := 0
	for ; i+4 <= len(w); i += 4 {
		x := w[i : i+4 : i+4]
		total += bits.OnesCount64(x[0]) + bits.OnesCount64(x[1]) +
			bits.OnesCount64(x[2]) + bits.OnesCount64(x[3])
	}
	for ; i < len(w); i++ {
		total += bits.OnesCount64(w[i])
	}
	return total
}

// AndCountWords returns popcount(a AND b). The slices must have equal
// length; the b bound is hoisted by reslicing to len(a).
func AndCountWords(a, b []uint64) int {
	b = b[:len(a)]
	total := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		total += bits.OnesCount64(x[0]&y[0]) + bits.OnesCount64(x[1]&y[1]) +
			bits.OnesCount64(x[2]&y[2]) + bits.OnesCount64(x[3]&y[3])
	}
	for ; i < len(a); i++ {
		total += bits.OnesCount64(a[i] & b[i])
	}
	return total
}

// Set is a fixed-capacity bit vector. The zero value is unusable; call
// newSet or FromSorted.
type Set struct {
	n     int
	words []uint64
}

// newSet returns a Set holding n bits, all zero.
func newSet(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// FromSorted builds a Set of n bits from sorted indices.
func FromSorted(n int, idx []int32) *Set {
	s := newSet(n)
	for _, i := range idx {
		s.set(int(i))
	}
	return s
}

// set turns bit i on. Panics when out of range.
func (s *Set) set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is on.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}
