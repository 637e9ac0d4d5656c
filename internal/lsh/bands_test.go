package lsh

import (
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// TestCandidateBandsUnionMatchesCandidates proves that unioning the
// per-band pair lists of any band-range partition, with exact dedup,
// reproduces the serial Candidates set and its bucket-pair count — the
// identity the scale-out executor relies on.
func TestCandidateBandsUnionMatchesCandidates(t *testing.T) {
	rng := hashing.NewSplitMix64(19)
	m, _ := plantedMatrix(rng, 400, 50)
	sig, err := minhash.Compute(m.Stream(), 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	const r, l = 5, 6
	want, wantSt, err := Candidates(sig, r, l)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture produced no candidates")
	}
	for _, cuts := range [][]int{{0, 6}, {0, 3, 6}, {0, 1, 1, 2, 5, 6}} {
		got := pairs.NewSet(want.Len())
		var bucketPairs int64
		bands := 0
		for i := 0; i+1 < len(cuts); i++ {
			bps, err := CandidateBands(sig, r, l, cuts[i], cuts[i+1])
			if err != nil {
				t.Fatal(err)
			}
			for _, bp := range bps {
				bands++
				bucketPairs += bp.BucketPairs
				for j := 1; j < len(bp.Pairs); j++ {
					prev, cur := bp.Pairs[j-1], bp.Pairs[j]
					if prev.I > cur.I || (prev.I == cur.I && prev.J >= cur.J) {
						t.Fatalf("band %d pairs not strictly sorted", bp.Band)
					}
				}
				for _, p := range bp.Pairs {
					got.Add(p.I, p.J)
				}
			}
		}
		if bands != l {
			t.Errorf("partition %v covered %d bands, want %d", cuts, bands, l)
		}
		if bucketPairs != wantSt.BucketPairs {
			t.Errorf("partition %v: %d bucket pairs, want %d", cuts, bucketPairs, wantSt.BucketPairs)
		}
		if got.Len() != want.Len() {
			t.Errorf("partition %v: %d candidates, want %d", cuts, got.Len(), want.Len())
		}
		for _, p := range want.Slice() {
			if !got.Contains(p.I, p.J) {
				t.Errorf("partition %v missing pair (%d,%d)", cuts, p.I, p.J)
			}
		}
	}
}

// TestSampledCandidateBandsUnionMatches proves the same identity for
// the sampled Q_{r,l,k} layout at a fixed seed.
func TestSampledCandidateBandsUnionMatches(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	m, _ := plantedMatrix(rng, 400, 50)
	sig, err := minhash.Compute(m.Stream(), 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	const r, l = 5, 8
	const seed = 99
	want, wantSt, err := SampledCandidates(sig, r, l, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture produced no candidates")
	}
	got := pairs.NewSet(want.Len())
	var bucketPairs int64
	for _, cut := range [][2]int{{0, 2}, {2, 7}, {7, 8}} {
		bps, err := SampledCandidateBands(sig, r, l, seed, cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range bps {
			bucketPairs += bp.BucketPairs
			for _, p := range bp.Pairs {
				got.Add(p.I, p.J)
			}
		}
	}
	if bucketPairs != wantSt.BucketPairs {
		t.Errorf("%d bucket pairs, want %d", bucketPairs, wantSt.BucketPairs)
	}
	if got.Len() != want.Len() {
		t.Errorf("%d candidates, want %d", got.Len(), want.Len())
	}
	for _, p := range want.Slice() {
		if !got.Contains(p.I, p.J) {
			t.Errorf("missing pair (%d,%d)", p.I, p.J)
		}
	}
}

// TestBandRangeValidation covers the range and parameter checks.
func TestBandRangeValidation(t *testing.T) {
	rng := hashing.NewSplitMix64(29)
	m, _ := plantedMatrix(rng, 50, 10)
	sig, _ := minhash.Compute(m.Stream(), 10, 3)
	if _, err := CandidateBands(sig, 5, 2, 0, 3); err == nil {
		t.Error("band range beyond l accepted")
	}
	if _, err := CandidateBands(sig, 5, 2, -1, 1); err == nil {
		t.Error("negative band lo accepted")
	}
	if _, err := CandidateBands(sig, 5, 3, 0, 3); err == nil {
		t.Error("k < r*l accepted")
	}
	if _, err := SampledCandidateBands(sig, 11, 2, 1, 0, 2); err == nil {
		t.Error("k < r accepted")
	}
}

// mapBands is the test-local oracle for the band kernel: the bucket-map
// formulation of banding, one Go map per band.
func mapBands(sig *minhash.Signatures, bands [][]int) (*pairs.Set, int64) {
	set := pairs.NewSet(0)
	var bucketPairs int64
	for _, rows := range bands {
		buckets := make(map[uint64][]int32)
		for c := 0; c < sig.M; c++ {
			key := make([]uint64, 0, len(rows))
			empty := true
			for _, l := range rows {
				v := sig.Value(l, c)
				empty = empty && v == minhash.Empty
				key = append(key, v)
			}
			if !empty {
				k := hashing.CombineKeys(key)
				buckets[k] = append(buckets[k], int32(c))
			}
		}
		for _, cols := range buckets {
			for i := range cols {
				for _, j := range cols[i+1:] {
					bucketPairs++
					set.Add(cols[i], j)
				}
			}
		}
	}
	return set, bucketPairs
}

// TestBandingMatchesMapOracle checks the radix-grouped band kernel
// against the map oracle, for the disjoint and the sampled layout,
// through the serial, parallel and band-range drivers: same candidate
// set, same BucketPairs. The fixture mixes planted near-duplicates
// (buckets of two), identical column groups (buckets of five, ten pairs
// each) and empty columns.
func TestBandingMatchesMapOracle(t *testing.T) {
	rng := hashing.NewSplitMix64(29)
	const rows, cols = 300, 120
	b := matrix.NewBuilder(rows, cols)
	for c := 0; c < 100; c += 2 { // near-duplicate pairs
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
				if rng.Float64() < 0.9 {
					b.Set(r, c+1)
				}
			}
		}
	}
	for r := 0; r < rows; r++ { // 100..104 identical, 105..109 identical, 110..119 empty
		if rng.Float64() < 0.2 {
			for c := 100; c < 105; c++ {
				b.Set(r, c)
			}
		}
		if rng.Float64() < 0.2 {
			for c := 105; c < 110; c++ {
				b.Set(r, c)
			}
		}
	}
	sig, err := minhash.Compute(b.Build().Stream(), 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	const r, l, seed = 3, 8, 77
	layouts := []struct {
		name   string
		bands  [][]int
		serial func() (*pairs.Set, Stats, error)
		par    func() (*pairs.Set, Stats, error)
		ranged func(lo, hi int) ([]BandPairs, error)
	}{
		{"disjoint", disjointBands(r, l),
			func() (*pairs.Set, Stats, error) { return Candidates(sig, r, l) },
			func() (*pairs.Set, Stats, error) { return CandidatesParallelProgress(nil, sig, r, l, 4, nil) },
			func(lo, hi int) ([]BandPairs, error) { return CandidateBands(sig, r, l, lo, hi) }},
		{"sampled", sampledBands(sig.K, r, l, seed),
			func() (*pairs.Set, Stats, error) { return SampledCandidates(sig, r, l, seed) },
			func() (*pairs.Set, Stats, error) {
				return SampledCandidatesParallelProgress(nil, sig, r, l, seed, 4, nil)
			},
			func(lo, hi int) ([]BandPairs, error) { return SampledCandidateBands(sig, r, l, seed, lo, hi) }},
	}
	for _, lay := range layouts {
		want, wantBP := mapBands(sig, lay.bands)
		if wantBP < 20*l || want.Len() < 40 {
			t.Fatalf("%s: fixture too thin: %d bucket pairs, %d candidates", lay.name, wantBP, want.Len())
		}
		check := func(driver string, got *pairs.Set, bucketPairs int64) {
			t.Helper()
			if bucketPairs != wantBP {
				t.Errorf("%s/%s: %d bucket pairs, oracle %d", lay.name, driver, bucketPairs, wantBP)
			}
			if got.Len() != want.Len() {
				t.Errorf("%s/%s: %d candidates, oracle %d", lay.name, driver, got.Len(), want.Len())
			}
			for _, p := range want.Slice() {
				if !got.Contains(p.I, p.J) {
					t.Fatalf("%s/%s: missing (%d,%d)", lay.name, driver, p.I, p.J)
				}
			}
		}
		set, st, err := lay.serial()
		if err != nil {
			t.Fatal(err)
		}
		check("serial", set, st.BucketPairs)
		pset, pst, err := lay.par()
		if err != nil {
			t.Fatal(err)
		}
		check("parallel", pset, pst.BucketPairs)
		if !reflect.DeepEqual(pset.Slice(), set.Slice()) {
			t.Errorf("%s: parallel insertion order differs from serial", lay.name)
		}
		head, err := lay.ranged(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := lay.ranged(3, l)
		if err != nil {
			t.Fatal(err)
		}
		rset := pairs.NewSet(0)
		var rbp int64
		for _, bp := range append(head, tail...) {
			rbp += bp.BucketPairs
			for _, p := range bp.Pairs {
				rset.Add(p.I, p.J)
			}
		}
		check("ranges", rset, rbp)
	}
}
