package candidate

import (
	"context"
	"fmt"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
)

// The goroutine scheduler promises bit-identical output to the serial
// full range — same pairs, same order, same work — at any worker
// count. TestPhase2Matrix is the table; these are its assertion at the
// worker counts the table leaves out (odd, and -1 for GOMAXPROCS), on a
// larger fixture per scheme.

func scanMatchesFullRange(t *testing.T, k *Kernel, workers ...int) {
	t.Helper()
	want, wantWork := fullRange(t, k)
	for _, w := range workers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got, work, err := k.Scan(context.Background(), nil, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, got, work, want, wantWork)
		})
	}
}

func TestRowSortMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(21)
	m, _ := plantedMatrix(rng, 700, 90)
	sig, err := mhSketch(m.Stream(), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Algo: fold.MinHash, Threshold: 0.3}
	scanMatchesFullRange(t, mustFor(t, p, fold.Sketch{MH: sig}, 1), 1, 2, 4, 7, -1)
}

func TestHashCountMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	m, _ := plantedMatrix(rng, 600, 70)
	sig, err := mhSketch(m.Stream(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newHashCountMH(context.Background(), sig, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	scanMatchesFullRange(t, kernelOf(t, fold.MinHash, r), 2, 4, 7)
}

func TestHashCountKMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(25)
	m, _ := plantedMatrix(rng, 600, 60)
	sk, err := kmhSketch(m.Stream(), 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Algo: fold.KMinHash, Threshold: 0.5}
	scanMatchesFullRange(t, mustFor(t, p, fold.Sketch{KMH: sk}, 1), 2, 4, 7)
}

func TestParallelCandidateErrors(t *testing.T) {
	rng := hashing.NewSplitMix64(27)
	m, _ := plantedMatrix(rng, 100, 20)
	sig, err := mhSketch(m.Stream(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newMHRanger(context.Background(), sig, 0, 4); err == nil {
		t.Error("Row-Sort index build accepted cutoff 0")
	}
	if _, err := newHashCountMH(context.Background(), sig, 1.5, 4); err == nil {
		t.Error("Hash-Count index build accepted cutoff 1.5")
	}
	if _, err := newKMHRanger(&kminhash.Sketches{K: 1}, KMHOptions{BiasedCutoff: 0}); err == nil {
		t.Error("K-MH index build accepted zero biased cutoff")
	}
}
