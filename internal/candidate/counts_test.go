package candidate

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/pairs"
)

// TestCountsReadAsCounted: kernels over a K-MH index's Counts — a full
// kernel and a Search, at 1 and 4 workers, through Scan and through
// split Ranges — emit what kernels over the bare index do: the same pairs
// in the same order, the same Estimate bits and the same work; a
// Search's steps admit the same pairs alike, and Column counts both
// sides either way. The counts hold every agreement once, the same
// counted at 1 and 4 workers, within the bound checked before the
// build, and a cancelled build returns nothing.
func TestCountsReadAsCounted(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	m, _ := plantedMatrix(rng, 800, 130)
	sk, err := kmhSketch(m.Stream(), 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexFor(context.Background(), Params{Algo: fold.KMinHash}, fold.Sketch{KMH: sk}, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ix.Count(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := ix.Count(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spread.off, counts.off) || !slices.Equal(spread.cells, counts.cells) {
		t.Fatal("the counts differ between 1 and 4 workers")
	}
	cols := int64(m.NumCols())
	var sum int64
	for _, c := range counts.cells {
		sum += int64(c.n)
	}
	if sum != ix.Agreements() || sum == 0 {
		t.Fatalf("the counts hold %d agreements, the index %d", sum, ix.Agreements())
	}
	if bound := ix.CountsBytes(); 8*int64(cap(counts.cells))+8*int64(len(counts.off)) > bound || 8*min(cols*(cols-1)/2, sum)+8*(cols+1) != bound {
		t.Fatalf("counts reserve %d pairs and %d offsets, bound %d bytes", cap(counts.cells), len(counts.off), bound)
	}
	if _, err := (&Index{algo: fold.MinHash}).Count(nil, 1); err == nil {
		t.Fatal("an MH index was counted whole")
	}

	ladder := []float64{0.9, 0.63, 0.441, 0.3087, 0.2, 0.05}
	for _, threshold := range ladder {
		p := Params{Algo: fold.KMinHash, K: 32, Threshold: threshold, Delta: 0.2}
		for _, search := range []bool{false, true} {
			kernel := func(over interface {
				Kernel(Params) (*Kernel, error)
				Search(Params) (*Kernel, error)
			}) *Kernel {
				k, err := over.Kernel(p)
				if search {
					k, err = over.Search(p)
				}
				if err != nil {
					t.Fatal(err)
				}
				return k
			}
			bare := kernel(ix)
			want, wantWork, err := bare.Range(nil, 0, bare.Units())
			if err != nil {
				t.Fatal(err)
			}
			if threshold <= 0.2 && len(want) < 20 {
				t.Fatalf("fixture too thin: %d candidates at %v", len(want), threshold)
			}
			for _, workers := range []int{1, 4} {
				got, work, err := kernel(counts).Scan(context.Background(), nil, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameCandidates(t, got, work, want, wantWork)
			}
			k := kernel(counts)
			var got []pairs.Scored
			var work int64
			for lo := 0; lo < k.Units(); lo += 17 {
				var did int64
				if got, did, err = k.Range(got, lo, min(lo+17, k.Units())); err != nil {
					t.Fatal(err)
				}
				work += did
			}
			sameCandidates(t, got, work, want, wantWork)
			for _, col := range []int{0, 1, 64, m.NumCols() - 1} {
				gotCol, gotWork, _ := k.Column(nil, col)
				wantCol, wantColWork, _ := bare.Column(nil, col)
				sameCandidates(t, gotCol, gotWork, wantCol, wantColWork)
			}
			if !search {
				continue
			}
			hits, bareHits := got, append([]pairs.Scored(nil), want...)
			for _, step := range ladder {
				if step > threshold {
					continue
				}
				q := p
				q.Threshold = step
				var fresh, wantFresh []pairs.Scored
				fresh, hits = k.Step(q, hits)
				wantFresh, bareHits = bare.Step(q, bareHits)
				if len(fresh) != len(wantFresh) {
					t.Fatalf("step %v of a search at %v: %d pairs admitted, %d over the bare index", step, threshold, len(fresh), len(wantFresh))
				}
				for i := range fresh {
					if fresh[i].Pair != wantFresh[i].Pair || math.Float64bits(fresh[i].Estimate) != math.Float64bits(wantFresh[i].Estimate) {
						t.Fatalf("step %v of a search at %v: %+v admitted, %+v over the bare index", step, threshold, fresh[i], wantFresh[i])
					}
				}
			}
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := ix.Count(cancelled, 4); c != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled count: %v, %v", c, err)
	}
}
