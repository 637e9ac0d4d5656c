package lsh

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/pairs"
)

// Bands are independent, so forks of one kernel may hash them
// concurrently: the layout and the signatures are shared read-only, the
// scratch is private. forked deals the bands round-robin to `workers`
// forks running at once (negative: GOMAXPROCS) and unions their
// answers. The goroutine scheduler proper is internal/candidate's
// (TestPhase2Matrix runs it over this kernel).
func forked(b *Bands, workers int) (*pairs.Set, int64) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	forks := []*Bands{b}
	for len(forks) < workers {
		forks = append(forks, b.Fork())
	}
	outs := make([][]pairs.Scored, b.Len())
	var wg sync.WaitGroup
	for w, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for band := w; band < b.Len(); band += len(forks) {
				outs[band], _ = f.Range(nil, band, band+1)
			}
		}()
	}
	wg.Wait()
	set := pairs.NewSet(0)
	var bucketPairs int64
	for _, ps := range outs {
		bucketPairs += int64(len(ps))
		for _, p := range ps {
			set.Add(p.I, p.J)
		}
	}
	return set, bucketPairs
}

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
	b, err := Disjoint(sig, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 16, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pset, bucketPairs := forked(b, workers)
			if bucketPairs != st.BucketPairs {
				t.Errorf("%d bucket pairs, serial %d", bucketPairs, st.BucketPairs)
			}
			sameSet(t, "forked", pset, set)
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
	b, err := Sampled(sig, 6, 15, 77)
	if err != nil {
		t.Fatal(err)
	}
	set, bucketPairs := union(b, []int{0, 15})
	for _, workers := range []int{2, 5} {
		pset, pbp := forked(b, workers)
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
	if _, err := Disjoint(sig, 0, 5); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := Disjoint(sig, 5, 10); err == nil {
		t.Error("k < r*l accepted")
	}
	if _, err := Sampled(sig, 11, 4, 1); err == nil {
		t.Error("k < r accepted")
	}
}
