package assocmine

import (
	"fmt"
	"testing"

	"assocmine/internal/faultfs"
	"assocmine/internal/testutil"
)

// Compressed-codec differential harness: mining from a ".carows"
// compressed file must be bit-identical to mining the same data from
// the uncompressed ".arows" file — same pairs, same estimates and
// exact similarities, same pair-section stats — for every scheme,
// worker count, and memory budget, while actually moving fewer bytes.
// Compression that changes results is not compression, it is a bug.

// TestCompressedPipelineMatchesUncompressed runs MH, K-MH and M-LSH
// over the same dataset saved both ways, serial and parallel,
// unbudgeted and with a counter-table budget small enough to force
// compressed spill runs, and checks results plus codec accounting.
func TestCompressedPipelineMatchesUncompressed(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 600, Cols: 120, MinDensity: 0.05, MaxDensity: 0.15, PairsPerRange: 4, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	raw := saveDataset(t, d, ".arows")
	comp := saveDataset(t, d, ".carows")
	// Delta close to 1 (and the wide M-LSH banding) inflates the
	// candidate list well past the 4 KB budget below, so the budgeted
	// runs genuinely spill.
	algos := []struct {
		name string
		cfg  Config
	}{
		{"MH", Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}},
		{"K-MH", Config{Algorithm: KMinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}},
		{"M-LSH", Config{Algorithm: MinLSH, Threshold: 0.3, K: 40, R: 2, L: 20, Seed: 13}},
	}
	for _, a := range algos {
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 4096} {
				t.Run(fmt.Sprintf("%s/workers=%d/budget=%d", a.name, workers, budget), func(t *testing.T) {
					cfg := a.cfg
					cfg.Workers = workers
					cfg.MemoryBudget = budget
					rawRes, err := raw.SimilarPairs(cfg)
					if err != nil {
						t.Fatalf("uncompressed: %v", err)
					}
					compRes, err := comp.SimilarPairs(cfg)
					if err != nil {
						t.Fatalf("compressed: %v", err)
					}
					if len(compRes.Pairs) != len(rawRes.Pairs) {
						t.Fatalf("%d pairs compressed, %d uncompressed", len(compRes.Pairs), len(rawRes.Pairs))
					}
					for i := range rawRes.Pairs {
						if compRes.Pairs[i] != rawRes.Pairs[i] {
							t.Fatalf("pair %d: %+v compressed, %+v uncompressed", i, compRes.Pairs[i], rawRes.Pairs[i])
						}
					}
					comparePairSections(t, compRes.Stats, rawRes.Stats, true)
					// Codec accounting: the compressed run must report its
					// compressed reads, read strictly fewer file bytes than
					// the uncompressed run, and price the saving as a >1x
					// ratio. The uncompressed run must report none of it.
					if compRes.Stats.CompressedBytesRead <= 0 {
						t.Errorf("compressed run reported %d compressed bytes", compRes.Stats.CompressedBytesRead)
					}
					if compRes.Stats.BytesRead >= rawRes.Stats.BytesRead {
						t.Errorf("compressed run read %d bytes, uncompressed %d", compRes.Stats.BytesRead, rawRes.Stats.BytesRead)
					}
					if compRes.Stats.CodecRatio <= 1 {
						t.Errorf("codec ratio %.2f, want > 1", compRes.Stats.CodecRatio)
					}
					if rawRes.Stats.CompressedBytesRead != 0 {
						t.Errorf("uncompressed run reported %d compressed bytes", rawRes.Stats.CompressedBytesRead)
					}
					if budget > 0 {
						if compRes.Stats.SpillRuns <= 0 {
							t.Fatalf("budget %d did not spill: %+v", budget, compRes.Stats)
						}
						// The default spill codec is compressed, so all spill
						// bytes are compressed bytes.
						if compRes.Stats.SpillBytesCompressed != compRes.Stats.SpillBytes {
							t.Errorf("SpillBytesCompressed = %d, SpillBytes = %d", compRes.Stats.SpillBytesCompressed, compRes.Stats.SpillBytes)
						}
					} else if compRes.Stats.SpillBytesCompressed != 0 {
						t.Errorf("unbudgeted run reported compressed spill: %+v", compRes.Stats)
					}
				})
			}
		}
	}
}

// TestCompressedChaosTransientBitIdentical: transient IO faults (plus
// a transiently failing open) injected under a ".carows" run must be
// invisible — bit-identical pairs and pair-section stats versus the
// fault-free compressed run — proving the retry path composes with the
// compressed decoder's offset tracking.
func TestCompressedChaosTransientBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	path := saveChaosFile(t, d, ".carows")
	for _, a := range chaosAlgos {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", a.name, workers), func(t *testing.T) {
				cfg := a.cfg
				cfg.Workers = workers
				cleanFD, err := OpenFileDataset(path)
				if err != nil {
					t.Fatal(err)
				}
				clean, err := cleanFD.SimilarPairs(cfg)
				if err != nil {
					t.Fatalf("fault-free run: %v", err)
				}
				fs := &faultfs.FS{
					Plan:    transientPlan(101),
					OpenErr: faultfs.TransientOpens(1),
				}
				faultyFD, err := OpenFileDatasetFS(fs, path)
				if err != nil {
					t.Fatalf("open through faulty FS: %v", err)
				}
				faultyFD.SetRetryPolicy(chaosRetry)
				faulty, err := faultyFD.SimilarPairs(cfg)
				if err != nil {
					t.Fatalf("faulty run: %v", err)
				}
				if len(faulty.Pairs) != len(clean.Pairs) {
					t.Fatalf("%d pairs under faults, %d fault-free", len(faulty.Pairs), len(clean.Pairs))
				}
				for i := range clean.Pairs {
					if faulty.Pairs[i] != clean.Pairs[i] {
						t.Fatalf("pair %d: %+v under faults, %+v fault-free", i, faulty.Pairs[i], clean.Pairs[i])
					}
				}
				comparePairSections(t, faulty.Stats, clean.Stats, true)
				if faulty.Stats.IORetries <= 0 || faulty.Stats.FaultsInjected <= 0 {
					t.Errorf("faults did not engage: retries=%d injected=%d", faulty.Stats.IORetries, faulty.Stats.FaultsInjected)
				}
				if faulty.Stats.CompressedBytesRead <= 0 {
					t.Errorf("compressed run reported %d compressed bytes", faulty.Stats.CompressedBytesRead)
				}
			})
		}
	}
}
