package assocmine

import (
	"fmt"
	"testing"
)

// TestWorkersDeterminismTable: SimilarPairs output (pairs, estimates,
// similarities) and Stats (pass accounting and every pair-section
// counter) must be identical for every worker count, across all
// LSH-family algorithms and BPS, on in-memory and streamed sources.
// workers=1 is the serial baseline; the others exercise the parallel
// shards of all three phases — including the in-memory fast paths that
// bypass the counted stream and account their pass by hand.
func TestWorkersDeterminismTable(t *testing.T) {
	d, _ := plantedDataset(t)
	fd := saveDataset(t, d, ".arows")
	sources := []struct {
		name string
		mine func(Config) (*Result, error)
	}{
		{"memory", func(cfg Config) (*Result, error) { return SimilarPairs(d, cfg) }},
		{"file", fd.SimilarPairs},
	}
	algos := []struct {
		name string
		cfg  Config
	}{
		{"MinHash", Config{Algorithm: MinHash, Threshold: 0.6, K: 60, Seed: 4}},
		{"KMinHash", Config{Algorithm: KMinHash, Threshold: 0.6, K: 60, Seed: 4}},
		{"MinLSH", Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 20, Seed: 4}},
		{"HammingLSH", Config{Algorithm: HammingLSH, Threshold: 0.6, K: 60, Seed: 4}},
		{"BPS", Config{Algorithm: BPS, Threshold: 0.6, Seed: 4}},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			base := a.cfg
			base.Workers = 1
			serial := make([]*Result, len(sources))
			for i, src := range sources {
				var err error
				if serial[i], err = src.mine(base); err != nil {
					t.Fatalf("%s serial: %v", src.name, err)
				}
			}
			for _, workers := range []int{2, 4, 7} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cfg := a.cfg
					cfg.Workers = workers
					for i, src := range sources {
						t.Run(src.name, func(t *testing.T) {
							par, err := src.mine(cfg)
							if err != nil {
								t.Fatal(err)
							}
							comparePairSections(t, par.Stats, serial[i].Stats, false)
							if len(par.Pairs) != len(serial[i].Pairs) {
								t.Fatalf("%d pairs, want %d", len(par.Pairs), len(serial[i].Pairs))
							}
							for j := range serial[i].Pairs {
								if par.Pairs[j] != serial[i].Pairs[j] {
									t.Fatalf("pair %d: %+v, want %+v", j, par.Pairs[j], serial[i].Pairs[j])
								}
							}
						})
					}
				})
			}
		})
	}
}

// TestWorkersBitIdentical: parallel signature computation must yield
// exactly the serial results through the public API.
func TestWorkersBitIdentical(t *testing.T) {
	d, _ := plantedDataset(t)
	for _, algo := range []Algorithm{MinHash, KMinHash, MinLSH} {
		base := Config{Algorithm: algo, Threshold: 0.6, K: 60, Seed: 4}
		if algo == MinLSH {
			base.R, base.L = 3, 20
		}
		serial, err := SimilarPairs(d, base)
		if err != nil {
			t.Fatalf("%v serial: %v", algo, err)
		}
		for _, workers := range []int{2, 8, -1} {
			cfg := base
			cfg.Workers = workers
			par, err := SimilarPairs(d, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", algo, workers, err)
			}
			if len(par.Pairs) != len(serial.Pairs) {
				t.Fatalf("%v workers=%d: %d pairs vs %d serial",
					algo, workers, len(par.Pairs), len(serial.Pairs))
			}
			for i := range serial.Pairs {
				if par.Pairs[i] != serial.Pairs[i] {
					t.Fatalf("%v workers=%d: pair %d differs", algo, workers, i)
				}
			}
		}
	}
}

// TestWorkersOnFileDataset: setting Workers on a streaming dataset
// fans the sequential file pass out to the workers (no materialising)
// and still matches the serial in-memory run.
func TestWorkersOnFileDataset(t *testing.T) {
	d, fd := fileDatasetFixture(t, ".arows")
	cfg := Config{Algorithm: MinHash, Threshold: 0.45, K: 40, Seed: 9}
	serial, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := fd.SimilarPairs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Pairs) != len(serial.Pairs) {
		t.Fatalf("parallel file run found %d pairs, want %d", len(par.Pairs), len(serial.Pairs))
	}
}
