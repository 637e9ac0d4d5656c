package lsh

import (
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/minhash"
)

func TestCandidatesParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m, _ := plantedMatrix(rng, 600, 80)
	sig, err := minhash.Compute(m.Stream(), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, st, err := Candidates(sig, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 16, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pset, pst, err := CandidatesParallelProgress(nil, sig, 5, 12, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pset.Sorted(), set.Sorted()) {
				t.Fatalf("candidate set differs: %d pairs vs %d", pset.Len(), set.Len())
			}
			if pst != st {
				t.Fatalf("stats %+v, want %+v", pst, st)
			}
		})
	}
}

func TestSampledCandidatesParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m, _ := plantedMatrix(rng, 500, 60)
	sig, err := minhash.Compute(m.Stream(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, st, err := SampledCandidates(sig, 6, 15, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		pset, pst, err := SampledCandidatesParallelProgress(nil, sig, 6, 15, 77, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pset.Sorted(), set.Sorted()) {
			t.Fatalf("workers=%d: sampled candidate set differs", workers)
		}
		if pst != st {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, pst, st)
		}
	}
}

func TestCandidatesParallelErrors(t *testing.T) {
	rng := hashing.NewSplitMix64(6)
	m, _ := plantedMatrix(rng, 100, 20)
	sig, err := minhash.Compute(m.Stream(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CandidatesParallelProgress(nil, sig, 0, 5, 4, nil); err == nil {
		t.Error("r=0 accepted")
	}
	if _, _, err := CandidatesParallelProgress(nil, sig, 5, 10, 4, nil); err == nil {
		t.Error("k < r*l accepted")
	}
	if _, _, err := SampledCandidatesParallelProgress(nil, sig, 11, 4, 1, 4, nil); err == nil {
		t.Error("k < r accepted")
	}
}
