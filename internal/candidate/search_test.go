package candidate

import (
	"context"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/pairs"
)

// TestSearchStepsMatchKernels: down a ladder of thresholds, what the
// steps of one Search have admitted so far is, pair for pair and
// Estimate bit for Estimate bit, what a kernel built for that step's
// parameters emits — for its full scan and for every column, over one
// index that serves every step — and the one scan costs what one of those
// kernels' scans does. K-MH's unbiased estimate is computed at most once
// a pair.
func TestSearchStepsMatchKernels(t *testing.T) {
	rng := hashing.NewSplitMix64(31)
	m, _ := plantedMatrix(rng, 600, 90)
	sig, err := mhSketch(m.Stream(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kmhSketch(m.Stream(), 32, 13)
	if err != nil {
		t.Fatal(err)
	}
	ladder := []float64{0.9, 0.63, 0.441, 0.3087, 0.2, 0.05}
	for _, tc := range []struct {
		name string
		p    Params
		sk   fold.Sketch
	}{
		{"mh", Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}},
		{"kmh", Params{Algo: fold.KMinHash}, fold.Sketch{KMH: sk}},
		{"mlsh-disjoint", Params{Algo: fold.MinLSH, R: 3, L: 8}, fold.Sketch{MH: sig}},
		{"mlsh-sampled", Params{Algo: fold.MinLSH, R: 3, L: 11}, fold.Sketch{MH: sig}}, // K < R·L
	} {
		at := func(threshold float64) Params {
			p := tc.p
			p.K, p.Seed, p.Threshold, p.Delta = 24, 5, threshold, 0.3
			return p
		}
		floor := at(ladder[len(ladder)-1])
		ix, err := IndexFor(context.Background(), floor, tc.sk, 1)
		if err != nil {
			t.Fatal(err)
		}
		for col := -1; col < sig.M; col++ { // -1: the full scan
			se, err := ix.Search(floor)
			if err != nil {
				t.Fatal(err)
			}
			own := mustFor(t, floor, tc.sk, 1)
			var hits []pairs.Scored
			var work, wantWork int64
			if col < 0 {
				hits, work, err = se.Scan(context.Background(), nil, 2, nil)
				_, wantWork = fullRange(t, own)
			} else {
				hits, work, err = se.Column(nil, col)
				_, wantWork, _ = own.Column(nil, col)
			}
			if err != nil || work != wantWork {
				t.Fatalf("%s col %d: scan work %d, a kernel's %d (%v)", tc.name, col, work, wantWork, err)
			}
			scanned := len(hits)
			var admitted []pairs.Scored
			for _, threshold := range ladder {
				var fresh []pairs.Scored
				fresh, hits = se.Step(at(threshold), hits)
				admitted = append(admitted, fresh...)
				k := mustFor(t, at(threshold), tc.sk, 1)
				var want []pairs.Scored
				if col < 0 {
					want, _ = fullRange(t, k)
				} else if want, _, err = k.Column(nil, col); err != nil {
					t.Fatal(err)
				}
				got := append([]pairs.Scored(nil), admitted...)
				want = append([]pairs.Scored(nil), want...)
				pairs.SortByKey(got)
				pairs.SortByKey(want)
				if len(got) != len(want) {
					t.Fatalf("%s col %d at %v: %d admitted so far, the step's kernel emits %d", tc.name, col, threshold, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s col %d at %v: %+v admitted, the step's kernel emits %+v", tc.name, col, threshold, got[i], want[i])
					}
				}
			}
			if len(admitted)+len(hits) != scanned {
				t.Fatalf("%s col %d: %d hits became %d admitted and %d left", tc.name, col, scanned, len(admitted), len(hits))
			}
			if col < 0 && len(admitted) < 20 {
				t.Fatalf("%s: fixture too thin: %d candidates at the floor", tc.name, len(admitted))
			}
		}
	}
	ix, err := IndexFor(context.Background(), Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(Params{Algo: fold.KMinHash, K: 24, Threshold: 0.5, Delta: 0.2}); err == nil {
		t.Error("an MH index searched for K-MH")
	}
}
