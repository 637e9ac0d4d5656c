package lsh

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// union answers the band ranges cuts[i]..cuts[i+1] one Range call each
// and unions them with exact dedup, summing the bucket pairs.
func union(b *Bands, cuts []int) (*pairs.Set, int64) {
	set := pairs.NewSet(0)
	var bucketPairs int64
	var ps []pairs.Scored
	for i := 0; i+1 < len(cuts); i++ {
		var n int64
		ps, n = b.Range(ps[:0], cuts[i], cuts[i+1])
		bucketPairs += n
		for _, p := range ps {
			set.Add(p.I, p.J)
		}
	}
	return set, bucketPairs
}

func sameSet(t *testing.T, label string, got, want *pairs.Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d candidates, want %d", label, got.Len(), want.Len())
	}
	for _, p := range want.Slice() {
		if !got.Contains(p.I, p.J) {
			t.Fatalf("%s: missing pair (%d,%d)", label, p.I, p.J)
		}
	}
}

// TestBandRangeValidation covers the layouts' parameter checks; the
// range check is the contract's (candidate.Kernel.Range).
func TestBandRangeValidation(t *testing.T) {
	rng := hashing.NewSplitMix64(29)
	m, _ := plantedMatrix(rng, 50, 10)
	sig, _ := minhash.Compute(m.Stream(), 10, 3)
	if _, err := Disjoint(sig, 5, 3); err == nil {
		t.Error("k < r*l accepted")
	}
	if _, err := Sampled(sig, 11, 2, 1); err == nil {
		t.Error("k < r accepted")
	}
	if _, err := Sampled(sig, 2, 0, 1); err == nil {
		t.Error("l = 0 accepted")
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
// against the map oracle, for the disjoint and the sampled layout, over
// the full range and over two ranges: same candidate set, same
// BucketPairs, and within a band the pairs distinct and ascending by
// (I, J). (Every other partition and scheduler is a cell of
// candidate.TestPhase2Matrix against the full range.)
func TestBandingMatchesMapOracle(t *testing.T) {
	sig := bandFixture(t)
	const r, l, seed = 3, 8, 77
	disjoint, err := Disjoint(sig, r, l)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Sampled(sig, r, l, seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, bands := range map[string]*Bands{"disjoint": disjoint, "sampled": sampled} {
		want, wantBP := mapBands(sig, bands.rows)
		if wantBP < 20*l || want.Len() < 40 {
			t.Fatalf("%s: fixture too thin: %d bucket pairs, %d candidates", name, wantBP, want.Len())
		}
		for driver, cuts := range map[string][]int{"full range": {0, l}, "ranges": {0, 3, l}} {
			got, bucketPairs := union(bands, cuts)
			if bucketPairs != wantBP {
				t.Errorf("%s/%s: %d bucket pairs, oracle %d", name, driver, bucketPairs, wantBP)
			}
			sameSet(t, name+"/"+driver, got, want)
		}
		for band := 0; band < l; band++ {
			ps, _ := bands.Range(nil, band, band+1)
			for j := 1; j < len(ps); j++ {
				if ps[j-1].Key() >= ps[j].Key() {
					t.Fatalf("%s: band %d pairs not strictly ascending", name, band)
				}
			}
		}
	}
	set, st, err := Candidates(sig, r, l)
	if err != nil {
		t.Fatal(err)
	}
	want, wantBP := mapBands(sig, disjoint.rows)
	if st.BucketPairs != wantBP || st.Bands != l || st.Candidates != want.Len() {
		t.Errorf("Candidates stats %+v, oracle %d bucket pairs, %d candidates", st, wantBP, want.Len())
	}
	sameSet(t, "Candidates", set, want)
}

// TestKeptBucketsMatchFreshBands: a kernel that holds the buckets Keep
// sorted once — and a fork of it, at the same time — answers every band
// range and every column exactly as a kernel that sorts each band when
// it reaches it: the same pairs in the same order, the same work, for
// both layouts; a cancelled Keep keeps nothing.
func TestKeptBucketsMatchFreshBands(t *testing.T) {
	sig := bandFixture(t)
	const r, l, seed = 3, 8, 77
	for name, lay := range map[string]func() (*Bands, error){
		"disjoint": func() (*Bands, error) { return Disjoint(sig, r, l) },
		"sampled":  func() (*Bands, error) { return Sampled(sig, r, l, seed) },
	} {
		fresh, err := lay()
		if err != nil {
			t.Fatal(err)
		}
		kept, _ := lay()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := kept.Keep(ctx); !errors.Is(err, context.Canceled) || kept.kept != nil {
			t.Fatalf("%s: cancelled Keep: %v, kept %v", name, err, kept.kept)
		}
		if err := kept.Keep(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, most := len(kept.kept.keys), l*sig.M; got == 0 || got > most || len(kept.kept.cols) != got {
			t.Fatalf("%s: %d keys and %d columns kept for %d bands of %d columns", name, got, len(kept.kept.cols), l, sig.M)
		}
		var wg sync.WaitGroup
		for _, b := range []*Bands{kept, kept.Fork()} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own, _ := lay() // fresh is not shared between goroutines
				for _, cut := range [][2]int{{0, l}, {0, 3}, {3, l}, {5, 6}} {
					want, wantBP := own.Range(nil, cut[0], cut[1])
					got, bp := b.Range(nil, cut[0], cut[1])
					if bp != wantBP || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: bands [%d,%d): %d pairs and %d bucket pairs from the kept buckets, %d and %d fresh", name, cut[0], cut[1], len(got), bp, len(want), wantBP)
					}
				}
				for col := 0; col < sig.M; col++ {
					want, wantN := own.Column(nil, col)
					got, n := b.Column(nil, col)
					if n != wantN || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: column %d: %v (%d collisions) from the kept buckets, %v (%d) fresh", name, col, got, n, want, wantN)
					}
				}
			}()
		}
		wg.Wait()
		if full, _ := fresh.Range(nil, 0, l); len(full) < 40 {
			t.Fatalf("%s: fixture too thin: %d bucket pairs", name, len(full))
		}
	}
}

// bandFixture mixes planted near-duplicates (buckets of two), identical
// column groups (buckets of five, ten pairs each) and empty columns.
func bandFixture(t *testing.T) *minhash.Signatures {
	t.Helper()
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
	return sig
}
