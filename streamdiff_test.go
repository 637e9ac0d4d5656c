package assocmine

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// saveDataset writes d to a temp file in the given format and opens it
// as a streaming FileDataset.
func saveDataset(t *testing.T, d *Dataset, ext string) *FileDataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data"+ext)
	var err error
	switch ext {
	case ".arows":
		err = d.SaveRowBinary(path)
	case ".carows":
		err = d.SaveRowCompressed(path)
	default:
		err = d.Save(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	fd, err := OpenFileDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

// comparePairSections checks the Stats fields that describe the mined
// pairs, the per-pair work and the pass accounting — the sections that
// must be identical across sources (in-memory, streamed, faulty,
// compressed) and across worker counts. sameSchedule additionally
// compares the counters that depend on how the work was cut up (shards
// broadcast, spill runs, packed words and batches): set it when got
// and want ran the same kind of source at the same worker count,
// kernel and budget.
func comparePairSections(t *testing.T, got, want Stats, sameSchedule bool) {
	t.Helper()
	if got.DataPasses != want.DataPasses {
		t.Errorf("DataPasses = %d, want %d", got.DataPasses, want.DataPasses)
	}
	if got.RowsScanned != want.RowsScanned {
		t.Errorf("RowsScanned = %d, want %d", got.RowsScanned, want.RowsScanned)
	}
	if sameSchedule {
		if got.ShardsStreamed != want.ShardsStreamed {
			t.Errorf("ShardsStreamed = %d, want %d", got.ShardsStreamed, want.ShardsStreamed)
		}
		if got.SpillRuns != want.SpillRuns {
			t.Errorf("SpillRuns = %d, want %d", got.SpillRuns, want.SpillRuns)
		}
		if got.PackedWords != want.PackedWords {
			t.Errorf("PackedWords = %d, want %d", got.PackedWords, want.PackedWords)
		}
		if got.PackedBatches != want.PackedBatches {
			t.Errorf("PackedBatches = %d, want %d", got.PackedBatches, want.PackedBatches)
		}
	}
	if got.Candidates != want.Candidates {
		t.Errorf("Candidates = %d, want %d", got.Candidates, want.Candidates)
	}
	if got.Verified != want.Verified {
		t.Errorf("Verified = %d, want %d", got.Verified, want.Verified)
	}
	if got.FalsePositives != want.FalsePositives {
		t.Errorf("FalsePositives = %d, want %d", got.FalsePositives, want.FalsePositives)
	}
	if got.SignatureCells != want.SignatureCells {
		t.Errorf("SignatureCells = %d, want %d", got.SignatureCells, want.SignatureCells)
	}
	if got.CandidateIncrements != want.CandidateIncrements {
		t.Errorf("CandidateIncrements = %d, want %d", got.CandidateIncrements, want.CandidateIncrements)
	}
	if got.BucketPairs != want.BucketPairs {
		t.Errorf("BucketPairs = %d, want %d", got.BucketPairs, want.BucketPairs)
	}
	if got.VerifyTouches != want.VerifyTouches {
		t.Errorf("VerifyTouches = %d, want %d", got.VerifyTouches, want.VerifyTouches)
	}
	if got.PairsSampled != want.PairsSampled {
		t.Errorf("PairsSampled = %d, want %d", got.PairsSampled, want.PairsSampled)
	}
	if got.SampleAccepts != want.SampleAccepts {
		t.Errorf("SampleAccepts = %d, want %d", got.SampleAccepts, want.SampleAccepts)
	}
	if got.SampleDups != want.SampleDups {
		t.Errorf("SampleDups = %d, want %d", got.SampleDups, want.SampleDups)
	}
}

// TestStreamedPipelineMatchesInMemory is the differential harness for
// the out-of-core path: seeded random datasets across sizes and
// densities, mined from disk (every file format) and from memory, must
// produce bit-identical Results — same pairs, same estimates and exact
// similarities, same pair-section Stats — for every scheme with a
// signature phase, serial and parallel.
func TestStreamedPipelineMatchesInMemory(t *testing.T) {
	fixtures := []SyntheticOptions{
		{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41},
		{Rows: 1600, Cols: 110, MinDensity: 0.02, MaxDensity: 0.1, PairsPerRange: 4, Seed: 43},
	}
	algos := []struct {
		name string
		cfg  Config
	}{
		{"MH", Config{Algorithm: MinHash, Threshold: 0.5, K: 50, Seed: 7}},
		{"K-MH", Config{Algorithm: KMinHash, Threshold: 0.5, K: 50, Seed: 7}},
		{"M-LSH", Config{Algorithm: MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 7}},
	}
	for fi, opt := range fixtures {
		d, _, err := GenerateSynthetic(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".txt", ".arows", ".carows"} {
			fd := saveDataset(t, d, ext)
			for _, a := range algos {
				for _, workers := range []int{1, 4} {
					// The scalar run doubles as the cross-kernel reference:
					// the packed kernel must mine exactly its pairs with
					// exactly its Touches.
					var scalarPairs []Pair
					var scalarTouches int64
					for _, kernel := range []Kernel{KernelScalar, KernelPacked} {
						name := fmt.Sprintf("fixture%d%s/%s/workers=%d/%v", fi, ext, a.name, workers, kernel)
						t.Run(name, func(t *testing.T) {
							cfg := a.cfg
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
							if len(stream.Pairs) != len(mem.Pairs) {
								t.Fatalf("%d pairs streamed, %d in memory", len(stream.Pairs), len(mem.Pairs))
							}
							for i := range mem.Pairs {
								if stream.Pairs[i] != mem.Pairs[i] {
									t.Fatalf("pair %d: %+v streamed, %+v in memory", i, stream.Pairs[i], mem.Pairs[i])
								}
							}
							comparePairSections(t, stream.Stats, mem.Stats, false)
							// A Context on a file source wraps the same single
							// reader: nothing about the run may change.
							cfg.Context = context.Background()
							withCtx, err := fd.SimilarPairs(cfg)
							if err != nil {
								t.Fatalf("streamed with Context: %v", err)
							}
							if !reflect.DeepEqual(withCtx.Pairs, stream.Pairs) {
								t.Errorf("Context changed the streamed pairs")
							}
							comparePairSections(t, withCtx.Stats, stream.Stats, true)
							if withCtx.Stats.BytesRead != stream.Stats.BytesRead {
								t.Errorf("BytesRead = %d with Context, %d without", withCtx.Stats.BytesRead, stream.Stats.BytesRead)
							}
							if stream.Stats.BytesRead <= 0 {
								t.Errorf("streamed run read %d bytes", stream.Stats.BytesRead)
							}
							if mem.Stats.BytesRead != 0 {
								t.Errorf("in-memory run reported %d bytes read", mem.Stats.BytesRead)
							}
							if workers > 1 && stream.Stats.ShardsStreamed <= 0 {
								t.Errorf("parallel streamed run broadcast %d shards", stream.Stats.ShardsStreamed)
							}
							if stream.Stats.SpillRuns != 0 || stream.Stats.SpillBytes != 0 {
								t.Errorf("unbudgeted run spilled: %+v", stream.Stats)
							}
							switch kernel {
							case KernelScalar:
								if stream.Stats.PackedBatches != 0 || mem.Stats.PackedBatches != 0 {
									t.Errorf("scalar kernel reported packed batches: stream %d, mem %d",
										stream.Stats.PackedBatches, mem.Stats.PackedBatches)
								}
								scalarPairs = append([]Pair(nil), mem.Pairs...)
								scalarTouches = mem.Stats.VerifyTouches
							case KernelPacked:
								if mem.Stats.Candidates > 0 && (stream.Stats.PackedBatches == 0 || mem.Stats.PackedBatches == 0) {
									t.Errorf("packed kernel reported no batches: stream %d, mem %d",
										stream.Stats.PackedBatches, mem.Stats.PackedBatches)
								}
								if scalarPairs == nil {
									t.Skip("scalar reference unavailable")
								}
								if len(mem.Pairs) != len(scalarPairs) {
									t.Fatalf("packed mined %d pairs, scalar %d", len(mem.Pairs), len(scalarPairs))
								}
								for i := range scalarPairs {
									if mem.Pairs[i] != scalarPairs[i] {
										t.Fatalf("pair %d: %+v packed, %+v scalar", i, mem.Pairs[i], scalarPairs[i])
									}
								}
								if mem.Stats.VerifyTouches != scalarTouches {
									t.Errorf("packed VerifyTouches = %d, scalar %d", mem.Stats.VerifyTouches, scalarTouches)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestStreamedMemoryBudget: mining a dataset whose verification counter
// table is several times the configured budget must trigger disk
// spills and still produce results identical to the unbudgeted
// in-memory run, with an attached Collector agreeing with Stats.
func TestStreamedMemoryBudget(t *testing.T) {
	d, _, err := GenerateSynthetic(SyntheticOptions{Rows: 600, Cols: 120, MinDensity: 0.05, MaxDensity: 0.15, PairsPerRange: 4, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	fd := saveDataset(t, d, ".arows")
	// Delta close to 1 admits nearly every estimated pair, inflating the
	// candidate list well past the budget below.
	base := Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}
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
			// The candidate bitmaps exceed this budget, so Auto must keep
			// the spilling scalar path rather than batch a packed arena.
			if stream.Stats.PackedBatches != 0 {
				t.Errorf("Auto packed an over-budget arena: %+v", stream.Stats)
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
			if got := col.Counter(CounterSpillRuns); got != stream.Stats.SpillRuns {
				t.Errorf("collector spill_runs = %d, Stats.SpillRuns = %d", got, stream.Stats.SpillRuns)
			}
			if got := col.Counter(CounterSpillBytes); got != stream.Stats.SpillBytes {
				t.Errorf("collector spill_bytes = %d, Stats.SpillBytes = %d", got, stream.Stats.SpillBytes)
			}
			if got := col.Counter(CounterBytesRead); got != stream.Stats.BytesRead {
				t.Errorf("collector bytes_read = %d, Stats.BytesRead = %d", got, stream.Stats.BytesRead)
			}
		})
	}
	// An in-memory run under the same budget must also match (the
	// budgeted pass replaces the concurrent-scan strategy there).
	cfg := base
	cfg.Workers = 4
	cfg.MemoryBudget = 4096
	budgeted, err := SimilarPairs(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.Stats.SpillRuns <= 0 {
		t.Fatalf("in-memory budgeted run did not spill: %+v", budgeted.Stats)
	}
	if len(budgeted.Pairs) != len(mem.Pairs) {
		t.Fatalf("%d pairs budgeted in-memory, %d unbudgeted", len(budgeted.Pairs), len(mem.Pairs))
	}
	for i := range mem.Pairs {
		if budgeted.Pairs[i] != mem.Pairs[i] {
			t.Fatalf("pair %d differs under in-memory budget", i)
		}
	}
}

// denseCounterBytesTest mirrors verify's per-candidate counter cost for
// the fixture-size sanity check above.
const denseCounterBytesTest = 12
