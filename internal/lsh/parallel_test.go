package lsh

import (
	"fmt"
	"testing"

	"assocmine/internal/hashing"
)

// The bands' index builds across workers goroutines and the kernel's
// column chunks scan across them (negative: GOMAXPROCS); neither moves
// a candidate or a bucket pair. The goroutine scheduler proper is
// internal/candidate's (TestPhase2Matrix runs it over every range
// shape).

func TestCandidatesParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(2)
	m, _ := plantedMatrix(rng, 600, 80)
	sig, err := mhSketch(m.Stream(), 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, st, err := Candidates(sig, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 16, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pset, bucketPairs := scan(t, sig, 5, 12, 0, workers)
			if bucketPairs != st.BucketPairs {
				t.Errorf("%d bucket pairs, serial %d", bucketPairs, st.BucketPairs)
			}
			sameSet(t, "parallel", pset, set)
		})
	}
}

func TestSampledCandidatesParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m, _ := plantedMatrix(rng, 500, 60)
	sig, err := mhSketch(m.Stream(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, bucketPairs := scan(t, sig, 6, 15, 77, 1)
	for _, workers := range []int{2, 5} {
		pset, pbp := scan(t, sig, 6, 15, 77, workers)
		if pbp != bucketPairs {
			t.Errorf("workers=%d: %d bucket pairs, serial %d", workers, pbp, bucketPairs)
		}
		sameSet(t, fmt.Sprintf("workers=%d", workers), pset, set)
	}
}

func TestCandidatesParallelErrors(t *testing.T) {
	rng := hashing.NewSplitMix64(6)
	m, _ := plantedMatrix(rng, 100, 20)
	sig, err := mhSketch(m.Stream(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Candidates(sig, 0, 5); err == nil {
		t.Error("r=0 accepted")
	}
	if _, _, err := Candidates(sig, 5, 10); err == nil {
		t.Error("k < r*l accepted")
	}
	for _, workers := range []int{1, 4} {
		if _, err := kernelOf(sig, 11, 4, 1, workers); err == nil {
			t.Errorf("workers=%d: k < r accepted", workers)
		}
		if _, err := kernelOf(sig, 2, 0, 1, workers); err == nil {
			t.Errorf("workers=%d: l = 0 accepted", workers)
		}
	}
}
