package candidate

import (
	"fmt"
	"reflect"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/minhash"
)

// The parallel candidate generators promise bit-identical output to
// their serial counterparts: same pairs, same order, same Stats.

func TestRowSortMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(21)
	m, _ := plantedMatrix(rng, 700, 90)
	sig, err := minhash.Compute(m.Stream(), 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := RowSortMH(sig, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, st, err := RowSortMHParallelProgress(nil, sig, 0.3, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("output differs from serial: %d pairs vs %d", len(got), len(want))
			}
			if st != wantSt {
				t.Fatalf("stats %+v, want %+v", st, wantSt)
			}
		})
	}
}

func TestHashCountMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	m, _ := plantedMatrix(rng, 600, 70)
	sig, err := minhash.Compute(m.Stream(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := HashCountMH(sig, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, st, err := scanMH(nil, sig, 0.25, true, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
		if st != wantSt {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantSt)
		}
	}
}

func TestHashCountKMHParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(25)
	m, _ := plantedMatrix(rng, 600, 60)
	sk, err := kminhash.Compute(m.Stream(), 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := KMHOptions{BiasedCutoff: 0.3, UnbiasedCutoff: 0.5}
	want, wantSt, err := HashCountKMH(sk, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, st, err := HashCountKMHParallelProgress(nil, sk, opt, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
		if st != wantSt {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantSt)
		}
	}
}

func TestParallelCandidateErrors(t *testing.T) {
	rng := hashing.NewSplitMix64(27)
	m, _ := plantedMatrix(rng, 100, 20)
	sig, err := minhash.Compute(m.Stream(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RowSortMHParallelProgress(nil, sig, 0, 4, nil); err == nil {
		t.Error("RowSortMHParallel accepted cutoff 0")
	}
	if _, _, err := scanMH(nil, sig, 1.5, true, 4, nil); err == nil {
		t.Error("HashCountMHParallel accepted cutoff 1.5")
	}
	if _, _, err := HashCountKMHParallelProgress(nil, &kminhash.Sketches{K: 1}, KMHOptions{BiasedCutoff: 0}, 4, nil); err == nil {
		t.Error("HashCountKMHParallel accepted zero biased cutoff")
	}
}
