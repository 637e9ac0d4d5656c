package kminhash

import (
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

func TestComputeParallelMatchesSerial(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	m := randomMatrix(rng, 400, 50, 0.1)
	const k, seed = 12, 77
	serial, err := Compute(m.Stream(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8, 0} {
		par, err := ComputeParallel(m.Stream().(matrix.ColumnLister), k, seed, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for c := 0; c < m.NumCols(); c++ {
			if par.ColSizes[c] != serial.ColSizes[c] {
				t.Fatalf("workers=%d col %d: sizes differ", workers, c)
			}
			a, b := serial.Signature(c), par.Signature(c)
			if len(a) != len(b) {
				t.Fatalf("workers=%d col %d: signature lengths differ", workers, c)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d col %d: sig[%d] differs", workers, c, i)
				}
			}
		}
	}
}

func TestComputeParallelValidates(t *testing.T) {
	m := matrix.MustNew(2, [][]int32{{0}})
	if _, err := ComputeParallel(m.Stream().(matrix.ColumnLister), -1, 1, 2); err == nil {
		t.Error("negative k accepted")
	}
}

func TestComputeParallelEstimatorsAgree(t *testing.T) {
	rng := hashing.NewSplitMix64(4)
	m := randomMatrix(rng, 300, 10, 0.2)
	serial, _ := Compute(m.Stream(), 10, 5)
	par, err := ComputeParallel(m.Stream().(matrix.ColumnLister), 10, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if serial.UnbiasedEstimate(i, j) != par.UnbiasedEstimate(i, j) {
				t.Fatalf("unbiased estimate differs on (%d,%d)", i, j)
			}
			if serial.BiasedEstimate(i, j) != par.BiasedEstimate(i, j) {
				t.Fatalf("biased estimate differs on (%d,%d)", i, j)
			}
		}
	}
}
