package radix

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// empty mirrors minhash.Empty, the all-ones sentinel of empty columns:
// Row-Sort inputs can be mostly this one key.
const empty = ^uint64(0)

// checkSorts runs both sorts on keys (payload = input position) and
// compares them with sort.SliceStable.
func checkSorts(t *testing.T, label string, keys []uint64) {
	t.Helper()
	type rec struct {
		key uint64
		val int32
	}
	want := make([]rec, len(keys))
	for i, k := range keys {
		want[i] = rec{k, int32(i)}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })

	// Dirty scratch, longer than needed: its contents must not matter.
	keyScratch := make([]uint64, len(keys)+3)
	valScratch := make([]int32, len(keys)+3)
	for i := range keyScratch {
		keyScratch[i], valScratch[i] = 0xdead, -1
	}
	gotKeys := append([]uint64(nil), keys...)
	gotVals := make([]int32, len(keys))
	for i := range gotVals {
		gotVals[i] = int32(i)
	}
	SortByKey(gotKeys, gotVals, keyScratch, valScratch)
	for i, w := range want {
		if gotKeys[i] != w.key || gotVals[i] != w.val {
			t.Fatalf("%s: SortByKey[%d] = (%#x, %d), want (%#x, %d)", label, i, gotKeys[i], gotVals[i], w.key, w.val)
		}
	}

	got := append([]uint64(nil), keys...)
	SortKeys(got, keyScratch)
	for i, w := range want {
		if got[i] != w.key {
			t.Fatalf("%s: SortKeys[%d] = %#x, want %#x", label, i, got[i], w.key)
		}
	}
}

func TestSortsMatchSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int, f func(i int) uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return keys
	}
	uniform := func(int) uint64 { return rng.Uint64() }
	for _, n := range []int{0, 1, 2, 10, 1000, 100_000} {
		checkSorts(t, "uniform", fill(n, uniform))
	}
	cases := map[string][]uint64{
		// No digit varies: every pass is skipped.
		"all equal": fill(5000, func(int) uint64 { return 0x0123456789abcdef }),
		// Only the last pass runs.
		"top byte only": fill(5000, func(int) uint64 { return uint64(rng.Intn(256))<<56 | 0x00ffee }),
		// Only the first pass runs: an odd pass count, so the result
		// must be copied back from scratch.
		"bottom byte only": fill(5000, func(int) uint64 { return 0xabcd00 | uint64(rng.Intn(256)) }),
		// Pair keys over a few thousand columns: bytes 2, 3, 6, 7 are
		// constant and skipped, the rest carry heavy duplication.
		"pair keys": fill(50_000, func(int) uint64 { return uint64(rng.Intn(3000))<<32 | uint64(rng.Intn(3000)) }),
		"mostly empty": fill(20_000, func(i int) uint64 {
			if i%10 != 0 {
				return empty
			}
			return rng.Uint64()
		}),
		"few values": fill(20_000, func(int) uint64 { return uint64(rng.Intn(7)) * 0x0101010101010101 }),
		"descending": fill(3000, func(i int) uint64 { return uint64(3000-i) * 0x9e3779b97f4a7c15 }),
	}
	for label, keys := range cases {
		checkSorts(t, label, keys)
	}
}

// FuzzRadixSort reads the input as little-endian 64-bit keys, thinned
// by the first byte into a small alphabet so equal keys (the stability
// case) and constant digits (the skipped-pass case) are common.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(append([]byte{0xff}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := ^uint64(0)
		if data[0]&1 == 1 {
			mask = 0xff000000000000ff // top and bottom digits only
		}
		if data[0]&2 == 2 {
			mask &= 0x0300000000000003 // and few values on each
		}
		data = data[1:]
		keys := make([]uint64, 0, len(data)/8+1)
		for ; len(data) >= 8; data = data[8:] {
			keys = append(keys, binary.LittleEndian.Uint64(data)&mask)
		}
		for _, b := range data {
			keys = append(keys, uint64(b)&mask)
		}
		checkSorts(t, "fuzz", keys)
	})
}
