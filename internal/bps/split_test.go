package bps

import (
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// TestSampleCountsPartitionMatchesSample proves the scale-out identity:
// SampleCounts over disjoint row ranges, merged with MergeCounts and
// finished with FinalizeCounts, equals one serial Sample bit for bit —
// candidates, estimates, and the Accepts/Dups statistics.
func TestSampleCountsPartitionMatchesSample(t *testing.T) {
	rng := hashing.NewSplitMix64(77)
	b := matrix.NewBuilder(240, 40)
	for r := 0; r < 240; r++ {
		for c := 0; c < 40; c++ {
			if rng.Float64() < 0.12 {
				b.Set(r, c)
			}
		}
	}
	src := b.Build().Stream()
	sup, err := Supports(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Threshold: 0.3, Delta: 0.2, Budget: 4, Seed: 5}
	want, wantSt, err := Sample(src, sup, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no candidates")
	}
	for _, cuts := range [][]int{{0, 240}, {0, 120, 240}, {0, 1, 17, 100, 239, 240}} {
		var merged Counts
		var inspected int64
		for i := 0; i+1 < len(cuts); i++ {
			part := &matrix.RangeSource{Src: src, From: cuts[i], To: cuts[i+1]}
			counts, insp, err := SampleCounts(part, sup, opt)
			if err != nil {
				t.Fatal(err)
			}
			inspected += insp
			merged = MergeCounts(merged, counts)
		}
		got, gotSt, err := FinalizeCounts(merged, sup, opt)
		if err != nil {
			t.Fatal(err)
		}
		if inspected != wantSt.Inspected {
			t.Errorf("partition %v: inspected %d, want %d", cuts, inspected, wantSt.Inspected)
		}
		if gotSt.Accepts != wantSt.Accepts || gotSt.Dups != wantSt.Dups {
			t.Errorf("partition %v: accepts/dups %d/%d, want %d/%d",
				cuts, gotSt.Accepts, gotSt.Dups, wantSt.Accepts, wantSt.Dups)
		}
		if len(got) != len(want) {
			t.Fatalf("partition %v: %d candidates, want %d", cuts, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partition %v: candidate %d = %+v, want %+v", cuts, i, got[i], want[i])
			}
		}
	}
}

// TestSampleCountsValidation covers the shared option checks on the
// split entry points.
func TestSampleCountsValidation(t *testing.T) {
	src := &matrix.SliceSource{Cols: 4, Rows: [][]int32{{0, 1}}}
	sup := []int64{1, 1, 0, 0}
	if _, _, err := SampleCounts(src, sup, Options{Threshold: 0, Budget: 1}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, _, err := FinalizeCounts(Counts{}, sup, Options{Threshold: 0.5, Budget: 0}); err == nil {
		t.Error("budget 0 accepted")
	}
}

// mapTally is the test-local oracle for the sorted-run accumulator: the
// admissibility and accept rules of sampler.row written out over a Go
// map (p_ij and the filter's count come from filter.at, the one place
// they are computed).
func mapTally(rows [][]int32, sup []int64, f filter, seedMix uint64) map[uint64]int64 {
	tally := make(map[uint64]int64)
	for r, cols := range rows {
		rowH := hashing.Mix64(seedMix ^ (uint64(r)+1)*0x9e3779b97f4a7c15)
		for a := range cols {
			for _, j := range cols[a+1:] {
				i := cols[a]
				if i > j {
					i, j = j, i
				}
				key := uint64(uint32(i))<<32 | uint64(uint32(j))
				p, need := f.at(float64(sup[i]), float64(sup[j]))
				if float64(min(sup[i], sup[j])) < need {
					continue
				}
				if p < 1 {
					if u := float64(hashing.Mix64(rowH^key)>>11) / (1 << 53); u >= p {
						continue
					}
				}
				tally[key]++
			}
		}
	}
	return tally
}

func sameTally(t *testing.T, label string, got Counts, want map[uint64]int64) {
	t.Helper()
	if len(got.Keys) != len(want) || len(got.N) != len(want) {
		t.Fatalf("%s: %d keys / %d counts, want %d", label, len(got.Keys), len(got.N), len(want))
	}
	for x, k := range got.Keys {
		if x > 0 && got.Keys[x-1] >= k {
			t.Fatalf("%s: keys not strictly ascending at %d", label, x)
		}
		if got.N[x] != want[k] {
			t.Fatalf("%s: key %#x counted %d, want %d", label, k, got.N[x], want[k])
		}
	}
}

// TestAccumulatorMatchesMapOracle drives the chunked sorted-run
// accumulator at chunk capacities that force a flush per key, per two,
// at an odd size and never, over 1 and 4 samplers, against a plain map.
func TestAccumulatorMatchesMapOracle(t *testing.T) {
	rng := hashing.NewSplitMix64(91)
	const nRows, nCols = 400, 60
	rows := make([][]int32, nRows)
	sup := make([]int64, nCols)
	for r := range rows {
		for c := 0; c < nCols; c++ {
			// Low columns are dense (subsampled pairs), high ones sparse (p = 1).
			if rng.Float64() < 0.5/float64(1+c/6) {
				rows[r] = append(rows[r], int32(c))
				sup[c]++
			}
		}
	}
	opt := Options{Threshold: 0.4, Budget: 3, Seed: 11}
	f, seedMix := sampleParams(sup, opt)
	want := mapTally(rows, sup, f, seedMix)
	if len(want) < 500 {
		t.Fatalf("fixture too small: %d distinct pairs", len(want))
	}
	for _, chunkCap := range []int{1, 2, 7, chunkKeys} {
		for _, workers := range []int{1, 4} {
			samplers := make([]*sampler, workers)
			for w := range samplers {
				samplers[w] = newSampler(sup, f, seedMix, chunkCap)
			}
			for r, cols := range rows {
				if err := samplers[r%workers].row(r, cols); err != nil {
					t.Fatal(err)
				}
			}
			var got Counts
			var inspected int64
			for _, s := range samplers {
				got = MergeCounts(got, s.counts())
				inspected += s.inspected
			}
			label := fmt.Sprintf("chunk %d, %d samplers", chunkCap, workers)
			sameTally(t, label, got, want)
			if inspected == 0 || got.total() > inspected {
				t.Errorf("%s: %d accepts of %d inspected", label, got.total(), inspected)
			}
		}
	}
}

// TestMergeCountsAlgebra checks that MergeCounts is commutative and
// associative, has the empty tally as identity, and leaves its
// arguments untouched.
func TestMergeCountsAlgebra(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	random := func() Counts {
		var c Counts
		key := uint64(0)
		for n := rng.Intn(40); n > 0; n-- {
			key += 1 + uint64(rng.Intn(3)) // small gaps: plenty of shared keys
			c.Keys = append(c.Keys, key)
			c.N = append(c.N, 1+int64(rng.Intn(5)))
		}
		return c
	}
	clone := func(c Counts) Counts {
		return Counts{Keys: append([]uint64(nil), c.Keys...), N: append([]int64(nil), c.N...)}
	}
	equal := func(a, b Counts) bool {
		return len(a.Keys) == len(b.Keys) && (len(a.Keys) == 0 || reflect.DeepEqual(a, b))
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := random(), random(), random()
		a0, b0 := clone(a), clone(b)
		ab := MergeCounts(a, b)
		if !equal(ab, MergeCounts(b, a)) {
			t.Fatalf("trial %d: not commutative", trial)
		}
		if !equal(MergeCounts(ab, c), MergeCounts(a, MergeCounts(b, c))) {
			t.Fatalf("trial %d: not associative", trial)
		}
		if !equal(MergeCounts(a, Counts{}), a) || !equal(MergeCounts(Counts{}, a), a) {
			t.Fatalf("trial %d: empty tally is not the identity", trial)
		}
		if !equal(a, a0) || !equal(b, b0) {
			t.Fatalf("trial %d: MergeCounts modified an argument", trial)
		}
		if ab.total() != a.total()+b.total() {
			t.Fatalf("trial %d: merged total %d, want %d", trial, ab.total(), a.total()+b.total())
		}
	}
}
