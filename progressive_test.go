package assocmine

import (
	"context"
	"errors"
	"testing"
)

func TestProgressiveSimilarPairsMatchesBatch(t *testing.T) {
	d, _ := plantedDataset(t)
	cfg := Config{Algorithm: MinLSH, Threshold: 0.7, K: 100, R: 5, L: 20, Seed: 5}
	batch, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	prog, err := ProgressiveSimilarPairs(d, cfg, func(p Progress) bool {
		calls++
		if p.Bands != 20 {
			t.Errorf("Bands = %d, want 20", p.Bands)
		}
		for _, pr := range p.Fresh {
			if pr.Similarity < 0.7 {
				t.Errorf("fresh pair %+v below threshold", pr)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 {
		t.Errorf("callback called %d times, want 20", calls)
	}
	if len(prog.Pairs) != len(batch.Pairs) {
		t.Fatalf("progressive found %d pairs, batch %d", len(prog.Pairs), len(batch.Pairs))
	}
	for i := range batch.Pairs {
		if prog.Pairs[i] != batch.Pairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, prog.Pairs[i], batch.Pairs[i])
		}
	}
}

func TestProgressiveEarlyStop(t *testing.T) {
	d, _ := plantedDataset(t)
	cfg := Config{Algorithm: MinLSH, Threshold: 0.7, K: 100, R: 5, L: 20, Seed: 5}
	calls := 0
	res, err := ProgressiveSimilarPairs(d, cfg, func(p Progress) bool {
		calls++
		return p.Band < 4 // stop after 5 bands
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("callback called %d times, want 5", calls)
	}
	// Early results are a subset of the full run and already verified.
	full, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullSet := map[[2]int]bool{}
	for _, p := range full.Pairs {
		fullSet[[2]int{p.I, p.J}] = true
	}
	for _, p := range res.Pairs {
		if !fullSet[[2]int{p.I, p.J}] {
			t.Errorf("early pair (%d,%d) not in the full run", p.I, p.J)
		}
	}
}

// TestProgressiveHighSimilarityFirst: the paper observes "the higher
// the similarity, the earlier the pair is likely to be discovered".
// With many bands, near-duplicate pairs should, on average, show up in
// earlier bands than borderline ones.
func TestProgressiveHighSimilarityFirst(t *testing.T) {
	d, _ := plantedDataset(t)
	cfg := Config{Algorithm: MinLSH, Threshold: 0.45, K: 120, R: 3, L: 40, Seed: 6}
	firstBand := map[[2]int]int{}
	_, err := ProgressiveSimilarPairs(d, cfg, func(p Progress) bool {
		for _, pr := range p.Fresh {
			key := [2]int{pr.I, pr.J}
			if _, ok := firstBand[key]; !ok {
				firstBand[key] = p.Band
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var hiSum, hiN, loSum, loN float64
	for key, band := range firstBand {
		s := d.Similarity(key[0], key[1])
		switch {
		case s >= 0.85:
			hiSum += float64(band)
			hiN++
		case s < 0.6:
			loSum += float64(band)
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("fixture lacks pairs in one band class")
	}
	if hiSum/hiN > loSum/loN {
		t.Errorf("high-similarity pairs discovered later on average (%.2f) than low (%.2f)",
			hiSum/hiN, loSum/loN)
	}
}

func TestProgressiveValidation(t *testing.T) {
	d, _ := NewDatasetFromRows(2, [][]int{{0}, {1}})
	if _, err := ProgressiveSimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5}, func(Progress) bool { return true }); err == nil {
		t.Error("non-MinLSH algorithm accepted")
	}
	if _, err := ProgressiveSimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.5, K: 4, R: 5, L: 2}, func(Progress) bool { return true }); err == nil {
		t.Error("K < R*L accepted")
	}
	if _, err := ProgressiveSimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.5}, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

// TestProgressiveCancelled: the band-at-a-time scheduler aborts with the
// context's error like every other scheduler of the phase-2 kernel —
// before the first band when cancelled up front, and between bands when
// the callback's own work cancels it.
func TestProgressiveCancelled(t *testing.T) {
	d, _ := plantedDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{Algorithm: MinLSH, Threshold: 0.7, K: 100, R: 5, L: 20, Seed: 5, Context: ctx}
	bands := 0
	_, err := ProgressiveSimilarPairs(d, cfg, func(p Progress) bool {
		bands++
		if p.Band == 2 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d bands, want context.Canceled", err, bands)
	}
	if bands > 4 {
		t.Errorf("ran %d bands after cancellation at band 2", bands)
	}
	if _, err := ProgressiveSimilarPairs(d, cfg, func(Progress) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}
