package candidate

import (
	"context"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
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
		sameCandidates(t, k, got, work, want, wantWork)
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
	sameCandidates(t, k, rowSort, st.Increments, want, wantWork)
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
	sameCandidates(t, k, hashCount, st.Increments, want, wantWork)
}

// TestRangerValidation covers the constructor cutoff checks.
func TestRangerValidation(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	m := randomMatrix(rng, 40, 10, 0.2)
	sig, _ := mhSketch(m.Stream(), 8, 3)
	if _, err := newMHRanger(context.Background(), sig, 0, false, 1); err == nil {
		t.Error("cutoff 0 accepted")
	}
	if _, err := newMHRanger(context.Background(), sig, 1.5, false, 1); err == nil {
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
