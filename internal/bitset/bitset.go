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

// XorCountWords returns popcount(a XOR b), the Hamming distance of two
// packed columns. The slices must have equal length.
func XorCountWords(a, b []uint64) int {
	b = b[:len(a)]
	total := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		total += bits.OnesCount64(x[0]^y[0]) + bits.OnesCount64(x[1]^y[1]) +
			bits.OnesCount64(x[2]^y[2]) + bits.OnesCount64(x[3]^y[3])
	}
	for ; i < len(a); i++ {
		total += bits.OnesCount64(a[i] ^ b[i])
	}
	return total
}

// Set is a fixed-capacity bit vector. The zero value is unusable; call
// New.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set holding n bits, all zero.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// FromSorted builds a Set of n bits from sorted indices.
func FromSorted(n int, idx []int32) *Set {
	s := New(n)
	for _, i := range idx {
		s.Set(int(i))
	}
	return s
}

// Set turns bit i on. Panics when out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear turns bit i off.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is on.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	return CountWords(s.words)
}

// AndCount returns |s ∩ o| for sets of equal capacity.
func (s *Set) AndCount(o *Set) int {
	if s.n != o.n {
		panic("bitset: AndCount on sets of different sizes")
	}
	return AndCountWords(s.words, o.words)
}

// OrInPlace sets s = s ∪ o for sets of equal capacity.
func (s *Set) OrInPlace(o *Set) {
	if s.n != o.n {
		panic("bitset: OrInPlace on sets of different sizes")
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// HammingDistance returns the number of positions where s and o differ.
func (s *Set) HammingDistance(o *Set) int {
	if s.n != o.n {
		panic("bitset: HammingDistance on sets of different sizes")
	}
	return XorCountWords(s.words, o.words)
}
