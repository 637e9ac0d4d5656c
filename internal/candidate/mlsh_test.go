package candidate

import (
	"context"
	"fmt"
	"math"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
)

// mlshFixtures are signature matrices with empty columns: a planted
// sketch (near-duplicate pairs among noise) with every ninth column
// emptied, and a three-value alphabet, whose bands collide often, with
// every eleventh column empty and column 5 empty in rows 0-5 alone — in
// one disjoint band wholly, in sampled bands partly.
func mlshFixtures(t *testing.T) map[string]*minhash.Signatures {
	t.Helper()
	m, _ := plantedMatrix(hashing.NewSplitMix64(41), 600, 90)
	planted, err := mhSketch(m.Stream(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	alphabet := &minhash.Signatures{K: 24, M: 90, Vals: make([]uint64, 24*90)}
	next := testutil.SplitMix64(43)
	for l := range alphabet.K {
		for c := range alphabet.M {
			alphabet.Vals[l*alphabet.M+c] = next() % 3
			if c%11 == 3 || c == 5 && l < 6 {
				alphabet.Vals[l*alphabet.M+c] = minhash.Empty
			}
			if c%9 == 4 {
				planted.Vals[l*planted.M+c] = minhash.Empty
			}
		}
	}
	return map[string]*minhash.Signatures{"planted": planted, "alphabet": alphabet}
}

// sameSet asserts that got holds want's pairs, each once, with
// identical Estimate bits, in any order.
func sameSet(t *testing.T, what string, got, want []pairs.Scored) {
	t.Helper()
	got, want = append([]pairs.Scored(nil), got...), append([]pairs.Scored(nil), want...)
	pairs.SortByKey(got)
	pairs.SortByKey(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, the band walk %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) {
			t.Fatalf("%s: pair %d = %+v, the band walk %+v", what, i, got[i], want[i])
		}
	}
}

// TestMLSHMatchesBandWalk: M-LSH's kernel — Row-Sorting over the band
// keys at one agreement — finds what the band walk finds, with the
// bucket pairs it walks as its work: over both layouts (disjoint, and
// sampled with K < R·L), a kept index (one IndexFor serving every path)
// and a bare one (For), one and four workers, through Scan, 17-column
// Ranges, every 7th Column, a Search's scan and Step, and the per-band
// fresh lists of the online mode (Index.Band), which keep the walk's
// order too.
func TestMLSHMatchesBandWalk(t *testing.T) {
	ctx := context.Background()
	for fname, sig := range mlshFixtures(t) {
		sk := fold.Sketch{MH: sig}
		for lname, l := range map[string]int{"disjoint": 8, "sampled": 11} {
			p := Params{Algo: fold.MinLSH, K: 24, R: 3, L: l, Seed: 5, Threshold: 0.5, Delta: 0.2}
			walk := newBandWalk(sig, p)
			fresh, bucketPairs := walk.gathered()
			var want []pairs.Scored
			for _, f := range fresh {
				want = append(want, f...)
			}
			if len(want) < 20 || bucketPairs == int64(len(want)) {
				t.Fatalf("%s/%s: fixture too thin: %d candidates, %d bucket pairs", fname, lname, len(want), bucketPairs)
			}
			for _, workers := range []int{1, 4} {
				kept, err := IndexFor(ctx, p, sk, workers)
				if err != nil {
					t.Fatal(err)
				}
				for iname, kernel := range map[string]func() (*Kernel, error){
					"kept": func() (*Kernel, error) { return kept.Kernel(p) },
					"bare": func() (*Kernel, error) { return For(ctx, p, sk, workers) },
				} {
					t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", fname, lname, iname, workers), func(t *testing.T) {
						k, err := kernel()
						if err != nil {
							t.Fatal(err)
						}
						scan, work, err := k.Scan(ctx, nil, workers, nil)
						if err != nil || work != bucketPairs {
							t.Fatalf("scan: %d bucket pairs, the band walk %d (%v)", work, bucketPairs, err)
						}
						sameSet(t, "scan", scan, want)

						var ranged []pairs.Scored
						var rangedWork int64
						for lo := 0; lo < k.Units(); lo += 17 {
							var did int64
							if ranged, did, err = k.Range(ranged, lo, min(lo+17, k.Units())); err != nil {
								t.Fatal(err)
							}
							rangedWork += did
						}
						sameCandidates(t, ranged, rangedWork, scan, work)

						for col := 0; col < sig.M; col += 7 {
							got, collisions, err := k.Column(nil, col)
							wantCol, wantCollisions := walk.column(col)
							if err != nil || collisions != wantCollisions {
								t.Fatalf("column %d: %d collisions, the band walk %d (%v)", col, collisions, wantCollisions, err)
							}
							sameSet(t, fmt.Sprintf("column %d", col), got, wantCol)
						}

						se, err := k.ix.Search(p)
						if err != nil {
							t.Fatal(err)
						}
						hits, hitWork, err := se.Scan(ctx, nil, workers, nil)
						if err != nil || hitWork != bucketPairs {
							t.Fatalf("search scan: %d bucket pairs, the band walk %d (%v)", hitWork, bucketPairs, err)
						}
						admitted, rest := se.Step(p, hits)
						if len(rest) != 0 {
							t.Fatalf("step left %d hits", len(rest))
						}
						sameSet(t, "step", admitted, want)

						for b := range l {
							got, did, err := k.ix.Band(nil, b)
							if err != nil || did != int64(len(walk.band(nil, b))) {
								t.Fatalf("band %d: %d bucket pairs, the band walk %d (%v)", b, did, len(walk.band(nil, b)), err)
							}
							if len(got) != len(fresh[b]) {
								t.Fatalf("band %d: %d fresh pairs, the band walk %d", b, len(got), len(fresh[b]))
							}
							for i := range got {
								if got[i] != fresh[b][i] {
									t.Fatalf("band %d: fresh pair %d = %+v, the band walk %+v", b, i, got[i], fresh[b][i])
								}
							}
						}
						for _, b := range []int{-1, l} {
							if _, _, err := k.ix.Band(nil, b); err == nil {
								t.Errorf("band %d of %d accepted", b, l)
							}
						}
					})
				}
			}
		}
	}
	mh, err := IndexFor(ctx, Params{Algo: fold.MinHash}, fold.Sketch{MH: mlshFixtures(t)["alphabet"]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mh.Band(nil, 0); err == nil {
		t.Error("an MH index answered a band")
	}
}
