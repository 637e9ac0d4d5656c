package assocmine

import (
	"fmt"
	"testing"
)

// BPS differential harness: every driver the sampler
// runs under — in-memory vs streamed, serial vs parallel, raw vs binary
// vs compressed file formats, scalar vs packed verify kernels, budgeted
// spill vs unbudgeted — must produce bit-identical Results at a fixed
// seed. The accept decision is a pure per-(row,pair) hash, so a single
// serial in-memory run is the reference for everything else.

// TestBPSDifferential: one serial in-memory reference per fixture;
// every (format, workers, kernel) combination must reproduce its pairs,
// estimates, exact similarities and pair-section stats exactly.
func TestBPSDifferential(t *testing.T) {
	fixtures := []SyntheticOptions{
		{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41},
		{Rows: 1600, Cols: 110, MinDensity: 0.02, MaxDensity: 0.1, PairsPerRange: 4, Seed: 43},
	}
	base := Config{Algorithm: BPS, Threshold: 0.5, Seed: 7}
	for fi, opt := range fixtures {
		d, _, err := GenerateSynthetic(opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SimilarPairs(d, base)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.PairsSampled <= 0 || ref.Stats.SampleAccepts <= 0 {
			t.Fatalf("fixture %d: reference run sampled nothing: %+v", fi, ref.Stats)
		}
		if len(ref.Pairs) == 0 {
			t.Fatalf("fixture %d: reference run mined no pairs — fixture too weak", fi)
		}
		for _, ext := range []string{".txt", ".arows", ".carows"} {
			fd := saveDataset(t, d, ext)
			for _, workers := range []int{1, 4} {
				for _, kernel := range []Kernel{KernelScalar, KernelPacked} {
					t.Run(fmt.Sprintf("fixture%d%s/workers=%d/%v", fi, ext, workers, kernel), func(t *testing.T) {
						cfg := base
						cfg.Workers = workers
						cfg.VerifyKernel = kernel
						mem, err := SimilarPairs(d, cfg)
						if err != nil {
							t.Fatalf("in-memory: %v", err)
						}
						stream, err := fd.SimilarPairs(cfg)
						if err != nil {
							t.Fatalf("streamed: %v", err)
						}
						for name, got := range map[string]*Result{"in-memory": mem, "streamed": stream} {
							if len(got.Pairs) != len(ref.Pairs) {
								t.Fatalf("%s: %d pairs, reference has %d", name, len(got.Pairs), len(ref.Pairs))
							}
							for i := range ref.Pairs {
								if got.Pairs[i] != ref.Pairs[i] {
									t.Fatalf("%s: pair %d = %+v, reference %+v", name, i, got.Pairs[i], ref.Pairs[i])
								}
							}
							comparePairSections(t, got.Stats, ref.Stats, false)
						}
						if stream.Stats.BytesRead <= 0 {
							t.Errorf("streamed run read %d bytes", stream.Stats.BytesRead)
						}
						if mem.Stats.BytesRead != 0 {
							t.Errorf("in-memory run reported %d bytes read", mem.Stats.BytesRead)
						}
						if ext == ".carows" && stream.Stats.CompressedBytesRead <= 0 {
							t.Errorf("compressed run reported %d compressed bytes", stream.Stats.CompressedBytesRead)
						}
						if workers > 1 && stream.Stats.ShardsStreamed <= 0 {
							t.Errorf("parallel streamed run dealt %d shards", stream.Stats.ShardsStreamed)
						}
					})
				}
			}
		}
	}
}

// TestBPSBudgetedSpillMatches: a verification memory budget several
// times smaller than the counter table must trigger disk spills and
// still reproduce the unbudgeted run bit for bit, with an attached
// Collector agreeing with Stats on the sampling counters.
func TestBPSBudgetedSpillMatches(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 600, Cols: 120, MinDensity: 0.05, MaxDensity: 0.15, PairsPerRange: 4, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	fd := saveDataset(t, d, ".arows")
	// Delta close to 1 admits nearly every sampled pair, inflating the
	// candidate list well past the budget below.
	base := Config{Algorithm: BPS, Threshold: 0.3, Delta: 0.9, Seed: 13}
	mem, err := SimilarPairs(d, base)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Stats.Candidates*denseCounterBytesTest < 8*4096 {
		t.Fatalf("fixture too small to exceed the budget: %d candidates", mem.Stats.Candidates)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			cfg.MemoryBudget = 4096
			col := NewCollector()
			cfg.Recorder = col
			stream, err := fd.SimilarPairs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stream.Stats.SpillRuns <= 0 || stream.Stats.SpillBytes <= 0 {
				t.Fatalf("budget %d did not spill: %+v", cfg.MemoryBudget, stream.Stats)
			}
			if len(stream.Pairs) != len(mem.Pairs) {
				t.Fatalf("%d pairs budgeted, %d unbudgeted", len(stream.Pairs), len(mem.Pairs))
			}
			for i := range mem.Pairs {
				if stream.Pairs[i] != mem.Pairs[i] {
					t.Fatalf("pair %d: %+v budgeted, %+v unbudgeted", i, stream.Pairs[i], mem.Pairs[i])
				}
			}
			comparePairSections(t, stream.Stats, mem.Stats, false)
			if got := col.Counter(CounterPairsSampled); got != stream.Stats.PairsSampled {
				t.Errorf("collector pairs_sampled = %d, Stats.PairsSampled = %d", got, stream.Stats.PairsSampled)
			}
			if got := col.Counter(CounterSampleAccepts); got != stream.Stats.SampleAccepts {
				t.Errorf("collector sample_accepts = %d, Stats.SampleAccepts = %d", got, stream.Stats.SampleAccepts)
			}
			if got := col.Counter(CounterSampleDups); got != stream.Stats.SampleDups {
				t.Errorf("collector sample_dups = %d, Stats.SampleDups = %d", got, stream.Stats.SampleDups)
			}
		})
	}
}

// TestBPSWindowMatchesTail: a sliding-window BPS run equals a batch run
// over just the trailing rows (with row ids preserved, supports and
// sampling decisions restricted to the window).
func TestBPSWindowMatchesTail(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 900, Cols: 80, MinDensity: 0.03, MaxDensity: 0.1, PairsPerRange: 3, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	const window = 300
	cfg := Config{Algorithm: BPS, Threshold: 0.4, Seed: 7}
	cfg.Window = window
	got, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimilarPairs(d, Config{Algorithm: BPS, Threshold: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The window genuinely changes the mined similarity landscape...
	if got.Stats.PairsSampled >= full.Stats.PairsSampled {
		t.Errorf("window run inspected %d draws, full run %d — window not applied?",
			got.Stats.PairsSampled, full.Stats.PairsSampled)
	}
	// ...and equals the BruteForce ground truth over the same window.
	truth, err := SimilarPairs(d, Config{Algorithm: BruteForce, Threshold: 0.4, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[[2]int]float64, len(got.Pairs))
	for _, p := range got.Pairs {
		found[[2]int{p.I, p.J}] = p.Similarity
	}
	for _, p := range truth.Pairs {
		sim, ok := found[[2]int{p.I, p.J}]
		if !ok {
			continue // the sampler may miss; it must never invent or mis-score
		}
		if sim != p.Similarity {
			t.Errorf("pair (%d,%d): windowed BPS similarity %v, truth %v", p.I, p.J, sim, p.Similarity)
		}
	}
	if len(got.Pairs) > len(truth.Pairs) {
		t.Errorf("windowed BPS returned %d pairs, truth has %d", len(got.Pairs), len(truth.Pairs))
	}
}
