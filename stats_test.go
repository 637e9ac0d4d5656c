package assocmine

import "testing"

// TestDataPassAccounting verifies the I/O accounting matches the
// paper's pass structure, in memory and over the dataset's files:
// signature phase (H-LSH: its candidate pass) = 1 pass, verification =
// 1 pass; brute force = 1 pass; a-priori = 2 passes (1 with fewer than
// two frequent columns).
func TestDataPassAccounting(t *testing.T) {
	d, _ := plantedDataset(t)
	cases := []struct {
		cfg        Config
		wantPasses int
	}{
		{Config{Algorithm: BruteForce, Threshold: 0.5}, 1},
		{Config{Algorithm: MinHash, Threshold: 0.5, K: 30, Seed: 1}, 2},
		{Config{Algorithm: KMinHash, Threshold: 0.5, K: 30, Seed: 1}, 2},
		{Config{Algorithm: MinLSH, Threshold: 0.5, K: 30, R: 3, L: 10, Seed: 1}, 2},
		{Config{Algorithm: HammingLSH, Threshold: 0.5, R: 6, L: 4, Seed: 1}, 2},
		// A-priori counts singletons, then pairs of frequent columns; with
		// fewer than two frequent columns there are no pairs to count.
		{Config{Algorithm: Apriori, Threshold: 0.5, MinSupport: 0.02}, 2},
		{Config{Algorithm: Apriori, Threshold: 0.5, MinSupport: 1}, 1},
	}
	type source struct {
		name string
		run  func(Config) (*Result, error)
	}
	sources := []source{{"memory", func(c Config) (*Result, error) { return SimilarPairs(d, c) }}}
	for _, ext := range []string{".txt", ".arows"} {
		sources = append(sources, source{ext, openSaved(t, d, ext).SimilarPairs})
	}
	for _, src := range sources {
		// Every two-pass scheme reads the file exactly as MH does: two
		// whole passes (none in memory).
		var mhBytes int64
		for _, c := range cases {
			res, err := src.run(c.cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", src.name, c.cfg.Algorithm, err)
			}
			if res.Stats.DataPasses != c.wantPasses {
				t.Errorf("%s %v: DataPasses = %d, want %d", src.name, c.cfg.Algorithm, res.Stats.DataPasses, c.wantPasses)
			}
			wantRows := int64(c.wantPasses) * int64(d.NumRows())
			if res.Stats.RowsScanned != wantRows {
				t.Errorf("%s %v: RowsScanned = %d, want %d", src.name, c.cfg.Algorithm, res.Stats.RowsScanned, wantRows)
			}
			switch {
			case c.cfg.Algorithm == MinHash:
				mhBytes = res.Stats.BytesRead
				if (mhBytes > 0) != (src.name != "memory") {
					t.Errorf("%s MinHash: BytesRead = %d", src.name, mhBytes)
				}
			case c.wantPasses == 2 && res.Stats.BytesRead != mhBytes:
				t.Errorf("%s %v: BytesRead = %d, want MinHash's %d", src.name, c.cfg.Algorithm, res.Stats.BytesRead, mhBytes)
			}
		}
	}
	// SkipVerify: one pass fewer.
	res, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5, K: 30, Seed: 1, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DataPasses != 1 {
		t.Errorf("SkipVerify MinHash passes = %d, want 1", res.Stats.DataPasses)
	}
}
