package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.next(), b.next(); av != bv {
			t.Fatalf("streams diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestSplitMix64DifferentSeeds(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	rng := NewSplitMix64(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += rng.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	rng := NewSplitMix64(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := rng.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	rng := NewSplitMix64(5)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[rng.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewSplitMix64(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := rng.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a contiguous range plus a sparse set.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestMultiplyShiftDeterministic(t *testing.T) {
	h := newMultiplyShift(NewSplitMix64(13))
	if h.hash(12345) != h.hash(12345) {
		t.Fatal("multiplyShift not deterministic")
	}
}

func TestMultiplyShiftSpreads(t *testing.T) {
	h := newMultiplyShift(NewSplitMix64(17))
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		seen[h.hash(i)] = true
	}
	if len(seen) != 10000 {
		t.Fatalf("collisions among 10000 consecutive keys: %d distinct", len(seen))
	}
}

func TestNewPermHashesIndependent(t *testing.T) {
	hs := NewPermHashes(21, 4)
	if len(hs) != 4 {
		t.Fatalf("got %d hashes, want 4", len(hs))
	}
	// Distinct functions should order rows differently with high probability.
	agree := 0
	const trials = 200
	for r := 0; r < trials; r++ {
		if (hs[0].Row(r) < hs[0].Row(r+1)) == (hs[1].Row(r) < hs[1].Row(r+1)) {
			agree++
		}
	}
	if agree < trials/4 || agree > 3*trials/4 {
		t.Fatalf("pairwise order agreement %d/%d suggests dependent hashes", agree, trials)
	}
}

func TestNewPermHashesReproducible(t *testing.T) {
	a := NewPermHashes(99, 3)
	b := NewPermHashes(99, 3)
	for i := range a {
		for r := 0; r < 50; r++ {
			if a[i].Row(r) != b[i].Row(r) {
				t.Fatalf("hash %d row %d differs across identical seeds", i, r)
			}
		}
	}
}

// CombineKeys is the band key of vals as one loop, written out as it was
// before BandKey split it into steps: the reference BandKey is held to.
func CombineKeys(vals []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = Mix64(h ^ v)
		h = h*0x100000001b3 + 0x517cc1b727220a95
	}
	return Mix64(h)
}

// TestQuickBandKeyMatchesCombineKeys: adding values one at a time gives
// the one-loop key, bit for bit, so bucket keys do not move.
func TestQuickBandKeyMatchesCombineKeys(t *testing.T) {
	f := func(vals []uint64) bool {
		h := KeyStart
		for _, v := range vals {
			h = h.Add(v)
		}
		return h.Sum() == CombineKeys(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCombineKeysOrderSensitive(t *testing.T) {
	a := CombineKeys([]uint64{1, 2, 3})
	b := CombineKeys([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("CombineKeys ignores order")
	}
}

func TestCombineKeysLengthSensitive(t *testing.T) {
	if CombineKeys([]uint64{0}) == CombineKeys([]uint64{0, 0}) {
		t.Fatal("CombineKeys ignores length")
	}
}

func TestQuickMix64Injective(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCombineKeysDeterministic(t *testing.T) {
	f := func(vals []uint64) bool {
		cp := append([]uint64(nil), vals...)
		return CombineKeys(vals) == CombineKeys(cp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
