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

// next returns the next 64-bit value in the stream: the i-th draw is
// Mix64(seed + i·0x9e3779b97f4a7c15).
func (s *SplitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	for {
		x := s.next()
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

// multiplyShift is a 2-universal hash family member over 64-bit keys:
// h(x) = mix(a*x + b) with odd a. The extra mixing step hardens the
// family's low bits, which matters because Min-LSH concatenates raw
// hash values into bucket keys.
type multiplyShift struct {
	a, b uint64
}

// newMultiplyShift draws a random member of the family from rng.
func newMultiplyShift(rng *SplitMix64) multiplyShift {
	return multiplyShift{a: rng.next() | 1, b: rng.next()}
}

// hash maps a 64-bit key to its 64-bit hash value.
func (m multiplyShift) hash(x uint64) uint64 {
	return Mix64(m.a*x + m.b)
}

// PermHash assigns each row index an effectively-random 64-bit value,
// implicitly defining a random order on rows (paper Section 3: "while
// scanning the rows, we will simply associate with each row a hash
// value that is a number chosen independently and uniformly at
// random"). Two PermHash values with different indices define
// independent row orders.
type PermHash struct {
	fn multiplyShift
}

// NewPermHashes returns k independent row-order hash functions derived
// from seed. The same (seed, k) always yields the same functions.
func NewPermHashes(seed uint64, k int) []PermHash {
	rng := NewSplitMix64(seed)
	hs := make([]PermHash, k)
	for i := range hs {
		hs[i] = PermHash{fn: newMultiplyShift(rng)}
	}
	return hs
}

// NewPermHash returns a single row-order hash function derived from seed.
func NewPermHash(seed uint64) PermHash {
	rng := NewSplitMix64(seed)
	return PermHash{fn: newMultiplyShift(rng)}
}

// Row returns the hash value of row r.
func (p PermHash) Row(r int) uint64 {
	return p.fn.hash(uint64(r))
}

// BandKey is the running state of the hash that turns a sequence of
// 64-bit values into one bucket key: Min-LSH's key for the concatenation
// of a column's r min-hash values in a band. Start from KeyStart, Add the
// values in order, then Sum; the key is order- and length-sensitive.
// Each column keeps its own state, so a band's keys can be built one
// signature row at a time, reading each row in order.
type BandKey uint64

// KeyStart is the state before any value is added.
const KeyStart BandKey = 0x9e3779b97f4a7c15

// Add folds the next value in.
func (h BandKey) Add(v uint64) BandKey {
	return BandKey(Mix64(uint64(h)^v)*0x100000001b3 + 0x517cc1b727220a95)
}

// Sum is the key of the values added so far.
func (h BandKey) Sum() uint64 { return Mix64(uint64(h)) }
