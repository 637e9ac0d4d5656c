// Package hashing provides the deterministic pseudo-random hash
// machinery underlying every sketch in this repository: a splittable
// 64-bit PRNG (splitmix64), multiply-shift universal hash families, and
// the PermHash row-hashing scheme the paper uses in place of explicit
// row permutations.
//
// The paper (Section 3) observes that instead of materialising a random
// permutation of the n rows it suffices to assign each row an
// independent uniform hash value and order rows by that value; with
// 64-bit values the birthday-paradox collision probability is
// negligible for any realistic n. All randomness in this repository is
// seeded, so every experiment is reproducible.
package hashing

import "math/bits"

// SplitMix64 is a tiny, fast, well-distributed PRNG. It is the
// recommended seeder for other generators and is itself adequate as a
// stream of independent 64-bit values. The zero value is a valid
// generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	for {
		x := s.Next()
		hi, lo := bits.Mul64(x, un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Mix64 is a fixed strong 64-bit mixer (the splitmix64 finalizer). It
// is a bijection on uint64, which several tests rely on.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MultiplyShift is a 2-universal hash family member over 64-bit keys:
// h(x) = mix(a*x + b) with odd a. The extra mixing step hardens the
// family's low bits, which matters because Min-LSH concatenates raw
// hash values into bucket keys.
type MultiplyShift struct {
	a, b uint64
}

// NewMultiplyShift draws a random member of the family from rng.
func NewMultiplyShift(rng *SplitMix64) MultiplyShift {
	return MultiplyShift{a: rng.Next() | 1, b: rng.Next()}
}

// Hash maps a 64-bit key to its 64-bit hash value.
func (m MultiplyShift) Hash(x uint64) uint64 {
	return Mix64(m.a*x + m.b)
}

// PermHash assigns each row index an effectively-random 64-bit value,
// implicitly defining a random order on rows (paper Section 3: "while
// scanning the rows, we will simply associate with each row a hash
// value that is a number chosen independently and uniformly at
// random"). Two PermHash values with different indices define
// independent row orders.
type PermHash struct {
	fn MultiplyShift
}

// NewPermHashes returns k independent row-order hash functions derived
// from seed. The same (seed, k) always yields the same functions.
func NewPermHashes(seed uint64, k int) []PermHash {
	rng := NewSplitMix64(seed)
	hs := make([]PermHash, k)
	for i := range hs {
		hs[i] = PermHash{fn: NewMultiplyShift(rng)}
	}
	return hs
}

// NewPermHash returns a single row-order hash function derived from seed.
func NewPermHash(seed uint64) PermHash {
	rng := NewSplitMix64(seed)
	return PermHash{fn: NewMultiplyShift(rng)}
}

// Row returns the hash value of row r.
func (p PermHash) Row(r int) uint64 {
	return p.fn.Hash(uint64(r))
}

// CombineKeys hashes a slice of 64-bit values into a single bucket key.
// Min-LSH uses it to turn the concatenation of r min-hash values into a
// hash-table key. The combination is order-sensitive.
func CombineKeys(vals []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = Mix64(h ^ v)
		h = h*0x100000001b3 + 0x517cc1b727220a95
	}
	return Mix64(h)
}

// CombineBits packs up to 64 bits into a bucket key. Hamming-LSH uses
// it for the r-bit column keys sampled from a folded matrix.
func CombineBits(bits []bool) uint64 {
	var key uint64
	for i, b := range bits {
		if b {
			key |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 {
			key = Mix64(key)
		}
	}
	return Mix64(key)
}
