package assocmine

import (
	"math"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

func TestSampleDistribution(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	b := matrix.NewBuilder(300, 40)
	for c := 0; c < 40; c++ {
		for r := 0; r < 300; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
			}
		}
	}
	d := &Dataset{m: b.Build()}
	want := float64(40 * 39 / 2)
	// A full sample counts every pair exactly; a larger request is capped
	// to it, and a subsample's counts still scale to the full pair count.
	for _, cols := range []int{40, 200, 20} {
		dist, err := sampleDistribution(d, cols, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(dist.S) != len(dist.Count) || len(dist.S) != 10 {
			t.Fatalf("%d columns: distribution has %d similarities, %d counts, want 10 buckets", cols, len(dist.S), len(dist.Count))
		}
		var mass float64
		for _, c := range dist.Count {
			mass += c
		}
		if math.Abs(mass-want) > 1e-6 {
			t.Errorf("%d columns: mass %v, want %v", cols, mass, want)
		}
	}
	if _, err := sampleDistribution(d, 1, 7); err == nil {
		t.Error("sampleCols=1 accepted")
	}
}
