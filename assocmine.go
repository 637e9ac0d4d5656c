package assocmine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"assocmine/internal/apriori"
	"assocmine/internal/candidate"
	"assocmine/internal/driver"
	"assocmine/internal/fold"
)

// ErrAprioriMemory is returned by SimilarPairs when the Apriori
// baseline's counters are charged more than Config.MemoryBudget — the
// failure mode the paper reports for low support thresholds (Fig. 4's
// "-" rows).
var ErrAprioriMemory = apriori.ErrMemoryBudget

// Algorithm selects the mining scheme: one of the similar-pair schemes,
// or Rules.
type Algorithm int

const (
	// BruteForce counts every pair exactly. No false positives or
	// negatives; O(Σ|row|²) time. The ground truth.
	BruteForce = Algorithm(fold.BruteForce)
	// MinHash is the MH scheme (paper Section 3): k independent
	// min-hash values per column, candidates by signature agreement.
	// Essentially no false negatives for adequate K; slower.
	MinHash = Algorithm(fold.MinHash)
	// KMinHash is the K-MH scheme (Section 3.2): bottom-k sketches from
	// a single hash function; exploits sparsity, sublinear in K.
	KMinHash = Algorithm(fold.KMinHash)
	// MinLSH is the M-LSH scheme (Section 4.1): banded LSH over
	// min-hash values. The fastest; tunable FP/FN trade-off.
	MinLSH = Algorithm(fold.MinLSH)
	// HammingLSH is the H-LSH scheme (Section 4.2): density-ladder LSH
	// directly on the data. Fast at high similarity cutoffs; many false
	// positives, so verification cost dominates.
	HammingLSH = Algorithm(fold.HammingLSH)
	// Apriori is the support-pruned baseline of Fig. 4. It requires
	// MinSupport > 0 and degrades (eventually failing on memory) as
	// support drops.
	Apriori = Algorithm(fold.Apriori)
	// BPS is biased pair sampling (Campagna & Pagh, "Finding
	// Associations and Computing Similarity via Biased Pair Sampling"):
	// candidate pairs are drawn directly from each row, accepted with
	// probability min(1, Δ/(s_i·s_j)) — inversely proportional to the
	// columns' support product — so low-support (interesting) pairs are
	// counted exactly while frequent pairs are cheaply subsampled. No
	// signature matrix; phase 1 is a single support-counting pass and
	// SampleBudget tunes the recall/work trade-off.
	BPS = Algorithm(fold.BPS)
	// Rules mines §6's high-confidence association rules I => J without
	// support pruning: MH signatures, candidates by the extended
	// Row-Sorting estimate of conf(I => J), then one exact pass by
	// confidence. Threshold is the minimum confidence; a Pair is the
	// directed rule I => J, its Similarity the exact confidence. K
	// defaults to 200 and Delta to 0.3, since confidence estimation
	// needs a bigger sketch than similarity.
	Rules = Algorithm(fold.Rules)
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BruteForce:
		return "BruteForce"
	case MinHash:
		return "MH"
	case KMinHash:
		return "K-MH"
	case MinLSH:
		return "M-LSH"
	case HammingLSH:
		return "H-LSH"
	case Apriori:
		return "A-priori"
	case BPS:
		return "BPS"
	case Rules:
		return "Rules"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config controls SimilarPairs. Zero values select documented defaults.
type Config struct {
	// Algorithm picks the scheme; default BruteForce.
	Algorithm Algorithm
	// Threshold is s*, the similarity cutoff — for Rules, the minimum
	// confidence. Required (in (0,1]).
	Threshold float64
	// K is the number of min-hash values per column for MinHash,
	// KMinHash, MinLSH and Rules. Default 100 (Rules: 200).
	K int
	// Delta loosens the candidate filter: signature-phase candidates
	// need estimated similarity (confidence, for Rules) >=
	// (1-Delta)*Threshold, with exact filtering left to verification.
	// Default 0.2 (Rules: 0.3).
	Delta float64
	// R and L are the band size and band count for MinLSH and the
	// sample size and run count for HammingLSH. Defaults: R=5,
	// L=K/R (MinLSH) or L=10 (HammingLSH).
	R, L int
	// MinSupport is the support fraction for Apriori (required for it).
	MinSupport float64
	// SampleBudget is the BPS sample budget λ: the expected number of
	// accepted draws for a pair exactly at Threshold. Larger budgets
	// raise recall and shrink the false-positive rate of the sampling
	// filter at proportionally more accepted samples. Default 32. The
	// other algorithms ignore it.
	SampleBudget int
	// MemoryBudget bounds verification's memory in bytes; zero means
	// unlimited. The exact pass picks its kernel from the input: the
	// packed popcount kernel when the candidate columns fit the budget
	// (and a fixed cap) as bitmaps — a sparse column, with fewer ones
	// than 1/512 of the rows, is held as its row list — and the scalar
	// counter table otherwise. When that table for all candidates would
	// exceed the budget, it is kept bounded and spills sorted runs of
	// partial counts to disk, merged after its single scan. Results are
	// bit-identical whichever runs; Stats reports the packed work
	// (PackedWords, PackedBatches) and the spill activity (SpillRuns,
	// SpillBytes). Apriori, which has no verification pass, is bounded by
	// it instead: its pair counters are charged 24 bytes a pair of
	// frequent columns (the classic candidate list), and over the budget
	// SimilarPairs returns ErrAprioriMemory (the paper's Fig. 4 "-" rows).
	MemoryBudget int64
	// Seed drives all hashing; runs are deterministic in (data, Config).
	Seed uint64
	// SkipVerify returns raw candidates without the exact pruning pass
	// (their Similarity fields are then estimates or zero).
	SkipVerify bool
	// Workers parallelises all three phases — signatures, candidate
	// generation, and verification — across goroutines, with results
	// and Stats (DataPasses, RowsScanned, every pair-section counter)
	// bit-identical to the serial run. 0 or 1 means serial; negative
	// means GOMAXPROCS (setDefaults normalises both, so after
	// validation Workers is always >= 1). Every source runs the same
	// phases — one sequential row pass fanned out in bounded shards to
	// per-worker fold states, and again to the verify workers, never
	// materialising a streamed matrix. In-memory data only changes what
	// the code can observe to be cheaper: verify workers scan
	// concurrently or pack from column lists, and K-MH shards columns.
	// HammingLSH's candidate pass reads the rows serially.
	Workers int
	// Recorder, when non-nil, receives per-phase spans, counters and
	// gauges as the run progresses (see Recorder for their names). Stats
	// is populated from the same event stream, so a
	// Collector used here ends the run agreeing with Stats exactly.
	// Must be safe for concurrent use. nil costs nothing.
	Recorder Recorder
	// Progress, when non-nil, receives coarse per-phase progress. Calls
	// are serialised and monotonic per phase; hooks sit at chunk/band/
	// shard boundaries, so results and Stats are unaffected. nil costs
	// nothing.
	Progress ProgressFunc
	// Context, when non-nil, cancels the run: every phase — signature
	// streaming, candidate generation, verification — checks it at
	// row/chunk/band granularity and returns ctx.Err() promptly once it
	// is done, with spill files cleaned up and no goroutines left
	// behind. nil means run to completion.
	Context context.Context
	// SpillDir receives the budgeted verification pass's spill runs;
	// "" means the OS temp directory. Run files never outlive the call,
	// successful or not.
	SpillDir string
	// Window, when positive, mines only the trailing Window rows of the
	// data: rows before NumRows-Window are skipped in every pass (row
	// ids are preserved, so signatures stay comparable with full-data
	// runs of the same seed), and similarities are exact over the window
	// alone. A Window >= NumRows is a full-data run. Sliding windows are
	// a streaming notion, so the whole-data schemes reject them:
	// HammingLSH (its fold ladder groups and densities span all rows)
	// and Apriori (support counting is defined over all rows) return an
	// error for Window > 0.
	Window int
}

func (c *Config) setDefaults() error {
	if c.L == 0 && c.Algorithm == HammingLSH {
		c.L = 10
	}
	p := c.params()
	if err := p.SetDefaults(); err != nil {
		return fmt.Errorf("assocmine: %w", err)
	}
	c.K, c.R, c.L, c.SampleBudget, c.Delta = p.K, p.R, p.L, p.SampleBudget, p.Delta
	if c.Algorithm == Apriori && (c.MinSupport <= 0 || c.MinSupport > 1) {
		return fmt.Errorf("assocmine: Apriori requires MinSupport in (0,1], got %v", c.MinSupport)
	}
	if c.Window < 0 {
		return fmt.Errorf("assocmine: Window must be >= 0, got %d", c.Window)
	}
	if c.Window > 0 && (c.Algorithm == HammingLSH || c.Algorithm == Apriori) {
		return fmt.Errorf("assocmine: %v does not support sliding-window mining (Window=%d)", c.Algorithm, c.Window)
	}
	c.Workers = normalizeWorkers(c.Workers)
	return nil
}

// params is the configuration's phase-2 parameter set: what the shared
// defaults fill, what candidate.For derives every phase-2 constant
// from, and what a dist hello frame carries.
func (c Config) params() candidate.Params {
	return candidate.Params{
		Algo: fold.Algo(c.Algorithm), K: c.K, R: c.R, L: c.L, SampleBudget: c.SampleBudget,
		Seed: c.Seed, Threshold: c.Threshold, Delta: c.Delta,
	}
}

// normalizeWorkers applies the single Workers semantic used
// everywhere: negative means GOMAXPROCS, 0 and 1 mean serial. The
// returned count is always >= 1.
func normalizeWorkers(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		return 1
	}
	return workers
}

// Pair is a similar column pair in a Result, or for Rules the directed
// rule I => J, whose Estimate and Similarity are confidences.
type Pair struct {
	I, J int
	// Estimate is the signature-phase similarity estimate (NaN-free; 0
	// when the scheme attaches none, e.g. LSH bucket collisions).
	Estimate float64
	// Similarity is the exact verified similarity (0 when SkipVerify);
	// for Rules, the exact confidence of I => J.
	Similarity float64
}

// Stats describes the work a SimilarPairs run performed, phase by
// phase. Durations are wall-clock for this process (the paper reports
// CPU time; they coincide for serial runs, and wall-clock is the
// quantity Workers > 1 improves).
type Stats struct {
	Algorithm  Algorithm
	Candidates int // pairs entering verification
	Verified   int // pairs surviving verification

	SignatureTime time.Duration // phase 1
	CandidateTime time.Duration // phase 2
	VerifyTime    time.Duration // phase 3

	// SignatureWorkers, CandidateWorkers and VerifyWorkers record the
	// worker budget each phase ran under (1 = serial; phases a scheme
	// does not parallelise, or that a scheme skips, report 1).
	SignatureWorkers int
	CandidateWorkers int
	VerifyWorkers    int

	// DataPasses counts sequential scans of the data (the I/O currency
	// of the disk-resident setting: phase 1 costs one pass, phase 3
	// another; a-priori costs two, one with fewer than two frequent
	// columns or over its budget). RowsScanned totals rows delivered
	// across all passes. Both are independent of Workers and of the
	// source: an in-memory fast path that reads the data without
	// scanning it accounts one I/O-equivalent pass.
	DataPasses  int
	RowsScanned int64

	// SignatureCells is the number of sketch entries built in phase 1
	// (k·m for MH/M-LSH, Σ|sketch| for K-MH; 0 for schemes without a
	// signature phase) and SignatureBytes their memory footprint.
	SignatureCells int64
	SignatureBytes int64
	// CandidateIncrements counts phase-2 counter increments (the
	// paper's candidate-generation work measure) for the counting
	// schemes; BucketPairs counts bucket-collision pairs inspected by
	// the LSH schemes before dedup.
	CandidateIncrements int64
	BucketPairs         int64
	// VerifyTouches counts phase-3 counter updates; FalsePositives is
	// Candidates - Verified, the candidates the exact pass pruned
	// (0 when SkipVerify).
	VerifyTouches  int64
	FalsePositives int

	// BytesRead totals file bytes read across all passes (0 for
	// in-memory sources). ShardsStreamed counts the bounded row blocks
	// the fan-outs of any phase broadcast to workers, for in-memory and
	// file sources alike (0 for serial runs, which scan rows directly);
	// it describes the schedule, so unlike the counters above it
	// depends on Workers.
	BytesRead      int64
	ShardsStreamed int64
	// SpillRuns and SpillBytes report the sorted runs the budgeted
	// verification pass wrote to disk (both 0 when the counter table
	// stayed within Config.MemoryBudget, or no budget was set).
	SpillRuns  int64
	SpillBytes int64
	// IORetries counts transient IO errors the file-backed source
	// retried away during this run (0 for healthy disks and in-memory
	// sources).
	IORetries int64
	// PackedWords counts the uint64 AND-popcount word operations the
	// packed verification kernel executed — only candidates whose two
	// columns are both held as bitmaps cost any — and PackedBatches the
	// batches its columns were loaded in: 1 for a packed pass (both 0
	// when verification ran a scalar kernel).
	PackedWords   int64
	PackedBatches int64
	// PairsSampled counts the in-row pair draws the BPS sampler
	// inspected, SampleAccepts the draws it tallied — accepted by its
	// biased test, for pairs whose supports admit the candidate filter
	// at all — and SampleDups the tallied draws for pairs that had
	// already been tallied (all 0 for the other schemes).
	PairsSampled  int64
	SampleAccepts int64
	SampleDups    int64
}

// Total returns the end-to-end running time.
func (s Stats) Total() time.Duration {
	return s.SignatureTime + s.CandidateTime + s.VerifyTime
}

// Result is the output of SimilarPairs: pairs sorted by decreasing
// similarity (Rules: rules by decreasing confidence, once verified, and
// in the estimate order phase 2 left under SkipVerify).
type Result struct {
	Pairs []Pair
	Stats Stats
}

// SimilarPairs finds all column pairs with similarity >= cfg.Threshold
// using the configured algorithm. All algorithms are exact after
// verification except for false negatives: pairs the signature phase
// missed (controlled by K, Delta, R, L).
func SimilarPairs(d *Dataset, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return similar(d.input(cfg), cfg, driver.Mine)
}
