package candidate

import (
	"context"
	"fmt"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/minhash"
)

// rangesMatchFullRange is TestPhase2Matrix's assertion over hand-picked
// partitions of one kernel's columns: concatenating consecutive Range
// outputs reproduces the full range — same pairs, same order, same
// estimate bits, same increments — single-column and empty ranges
// included.
func rangesMatchFullRange(t *testing.T, k *Kernel, partitions [][]int) {
	t.Helper()
	want, wantWork := fullRange(t, k)
	for _, cuts := range partitions {
		got, work := dealt(t, k, cuts, 1)
		sameCandidates(t, got, work, want, wantWork)
	}
}

func TestMHRangerMatchesRowSort(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	m, _ := plantedMatrix(rng, 300, 60)
	sig, err := mhSketch(m.Stream(), 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	k := mustFor(t, Params{Algo: fold.MinHash, Threshold: 0.5}, fold.Sketch{MH: sig}, 1)
	rangesMatchFullRange(t, k, [][]int{
		{0, 60},
		{0, 30, 60},
		{0, 7, 7, 13, 45, 60},
		{0, 1, 2, 3, 60},
	})
	// The serial entry point is the same full range.
	rowSort, st, err := RowSortMH(sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, wantWork := fullRange(t, k)
	sameCandidates(t, rowSort, st.Increments, want, wantWork)
}

func TestKMHRangerMatchesHashCount(t *testing.T) {
	rng := hashing.NewSplitMix64(43)
	m, _ := plantedMatrix(rng, 300, 60)
	sk, err := kmhSketch(m.Stream(), 32, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Algo: fold.KMinHash, Threshold: 0.5}
	k := mustFor(t, p, fold.Sketch{KMH: sk}, 1)
	rangesMatchFullRange(t, k, [][]int{
		{0, 60},
		{0, 15, 30, 45, 60},
		{0, 59, 60},
	})
	hashCount, st, err := HashCountKMH(sk, p.cascade())
	if err != nil {
		t.Fatal(err)
	}
	want, wantWork := fullRange(t, k)
	sameCandidates(t, hashCount, st.Increments, want, wantWork)
}

// TestRangerValidation covers the constructor cutoff checks.
func TestRangerValidation(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 40, 10, 0.2)
	sig, _ := mhSketch(m.Stream(), 8, 3)
	if _, err := newMHRanger(context.Background(), sig, 0, 1); err == nil {
		t.Error("cutoff 0 accepted")
	}
	if _, err := newMHRanger(context.Background(), sig, 1.5, 1); err == nil {
		t.Error("cutoff > 1 accepted")
	}
	sk, _ := kmhSketch(m.Stream(), 8, 3)
	if _, err := newKMHRanger(sk, KMHOptions{BiasedCutoff: 0}); err == nil {
		t.Error("biased cutoff 0 accepted")
	}
	if _, err := newKMHRanger(sk, KMHOptions{BiasedCutoff: 0.5, UnbiasedCutoff: 2}); err == nil {
		t.Error("unbiased cutoff > 1 accepted")
	}
}

// TestMHScanCountsOneSide holds the MH scan, which counts the members
// after each column, to the loop it replaced, bothSidesMH, which counted
// both sides and kept j > i: the same pairs, in the same order, with the
// same Estimate bits, from a scan at 1 and 4 workers, from 17-column
// ranges and from every Column, at a cutoff and at §6's floor of two
// agreements. The scan's work is half the oracle's, Agreements(); a
// column's, both sides, is the oracle's.
func TestMHScanCountsOneSide(t *testing.T) {
	rng := hashing.NewSplitMix64(45)
	m, _ := plantedMatrix(rng, 600, 90)
	planted, err := mhSketch(m.Stream(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []*minhash.Signatures{planted, wideSignatures(t, 8)} {
		ix, err := IndexFor(context.Background(), Params{Algo: fold.MinHash}, fold.Sketch{MH: sig}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, cutoff := range []float64{0.5, 2 / float64(sig.K)} {
			t.Run(fmt.Sprintf("m=%d/cutoff=%.3f", sig.M, cutoff), func(t *testing.T) {
				kern, err := ix.Kernel(Params{Algo: fold.MinHash, K: sig.K, Threshold: cutoff})
				if err != nil {
					t.Fatal(err)
				}
				r, err := ix.mhRanger(cutoff)
				if err != nil {
					t.Fatal(err)
				}
				oracle := kernelOf(t, fold.MinHash, bothSidesMH{r})
				want, oracleWork := fullRange(t, oracle)
				if oracleWork != 2*ix.Agreements() {
					t.Fatalf("oracle work %d, want twice the %d agreements", oracleWork, ix.Agreements())
				}
				for _, workers := range []int{1, 4} {
					got, work, err := kern.Scan(context.Background(), nil, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, got, work, want, ix.Agreements())
				}
				var cuts []int
				for at := 0; at < sig.M; at += 17 {
					cuts = append(cuts, at)
				}
				got, work := dealt(t, kern, append(cuts, sig.M), 4)
				sameCandidates(t, got, work, want, ix.Agreements())
				for col := range sig.M {
					got, work, err := kern.Column(nil, col)
					if err != nil {
						t.Fatal(err)
					}
					want, wantWork, err := oracle.Column(nil, col)
					if err != nil {
						t.Fatal(err)
					}
					sameCandidates(t, got, work, want, wantWork)
				}
			})
		}
	}
}
