package testutil

import (
	"errors"
	"testing"

	"assocmine/internal/hashing"
)

// TestSplitMix64MatchesHashing: draw for draw, the stream's top 53 bits
// are the ones hashing's generator turns into Float64 (both streams are
// Mix64 of the same counter, so the low bits follow).
func TestSplitMix64MatchesHashing(t *testing.T) {
	for _, seed := range []uint64{0, 1, 41, 0xd15f, 1 << 63} {
		next, rng := SplitMix64(seed), hashing.NewSplitMix64(seed)
		for i := 0; i < 1000; i++ {
			if got, want := float64(next()>>11)/(1<<53), rng.Float64(); got != want {
				t.Fatalf("seed %d draw %d: %v, generator %v", seed, i, got, want)
			}
		}
	}
}

func TestMust(t *testing.T) {
	if got := Must(7, nil); got != 7 {
		t.Errorf("Must(7, nil) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Must with an error did not panic")
		}
	}()
	Must(0, errors.New("boom"))
}
