package assocmine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"assocmine/internal/apriori"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/verify"
)

// ErrAprioriMemory is returned by SimilarPairs when the Apriori
// baseline exceeds Config.AprioriMemoryBudget — the failure mode the
// paper reports for low support thresholds (Fig. 4's "-" rows).
var ErrAprioriMemory = apriori.ErrMemoryBudget

// Algorithm selects the similar-pair mining scheme.
type Algorithm int

const (
	// BruteForce counts every pair exactly. No false positives or
	// negatives; O(Σ|row|²) time. The ground truth.
	BruteForce Algorithm = iota
	// MinHash is the MH scheme (paper Section 3): k independent
	// min-hash values per column, candidates by signature agreement.
	// Essentially no false negatives for adequate K; slower.
	MinHash
	// KMinHash is the K-MH scheme (Section 3.2): bottom-k sketches from
	// a single hash function; exploits sparsity, sublinear in K.
	KMinHash
	// MinLSH is the M-LSH scheme (Section 4.1): banded LSH over
	// min-hash values. The fastest; tunable FP/FN trade-off.
	MinLSH
	// HammingLSH is the H-LSH scheme (Section 4.2): density-ladder LSH
	// directly on the data. Fast at high similarity cutoffs; many false
	// positives, so verification cost dominates.
	HammingLSH
	// Apriori is the support-pruned baseline of Fig. 4. It requires
	// MinSupport > 0 and degrades (eventually failing on memory) as
	// support drops.
	Apriori
	// BPS is biased pair sampling (Campagna & Pagh, "Finding
	// Associations and Computing Similarity via Biased Pair Sampling"):
	// candidate pairs are drawn directly from each row, accepted with
	// probability min(1, Δ/(s_i·s_j)) — inversely proportional to the
	// columns' support product — so low-support (interesting) pairs are
	// counted exactly while frequent pairs are cheaply subsampled. No
	// signature matrix; phase 1 is a single support-counting pass and
	// SampleBudget tunes the recall/work trade-off.
	BPS
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
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Kernel selects the verification counting kernel; see
// Config.VerifyKernel.
type Kernel = verify.Kernel

const (
	// KernelAuto (the zero value) picks the packed kernel when the
	// candidate-column bitmaps fit comfortably in memory and the scalar
	// kernel otherwise; verify.Verify holds the exact heuristic.
	KernelAuto = verify.KernelAuto
	// KernelPacked forces the word-packed popcount kernel.
	KernelPacked = verify.KernelPacked
	// KernelScalar forces the per-row counter-scatter kernels.
	KernelScalar = verify.KernelScalar
)

// ParseKernel converts a flag spelling ("auto", "packed", "scalar";
// empty means auto) into a Kernel.
func ParseKernel(s string) (Kernel, error) { return verify.ParseKernel(s) }

// Config controls SimilarPairs. Zero values select documented defaults.
type Config struct {
	// Algorithm picks the scheme; default BruteForce.
	Algorithm Algorithm
	// Threshold is s*, the similarity cutoff. Required (in (0,1]).
	Threshold float64
	// K is the number of min-hash values per column for MinHash,
	// KMinHash and MinLSH. Default 100.
	K int
	// Delta loosens the candidate filter: signature-phase candidates
	// need estimated similarity >= (1-Delta)*Threshold, with exact
	// filtering left to verification. Default 0.2.
	Delta float64
	// R and L are the band size and band count for MinLSH and the
	// sample size and run count for HammingLSH. Defaults: R=5,
	// L=K/R (MinLSH) or L=10 (HammingLSH).
	R, L int
	// T is the HammingLSH density-window parameter; default 4.
	T int
	// MinSupport is the support fraction for Apriori (required for it).
	MinSupport float64
	// SampleBudget is the BPS sample budget λ: the expected number of
	// accepted draws for a pair exactly at Threshold. Larger budgets
	// raise recall and shrink the false-positive rate of the sampling
	// filter at proportionally more accepted samples. Default 32. The
	// other algorithms ignore it.
	SampleBudget int
	// AprioriMemoryBudget bounds apriori's candidate bytes; zero means
	// unlimited. When exceeded, SimilarPairs returns
	// apriori.ErrMemoryBudget (the paper's Fig. 4 "-" entries).
	AprioriMemoryBudget int64
	// MemoryBudget bounds the verification counter table in bytes; zero
	// means unlimited. When the table for all candidates would exceed
	// the budget, the exact pass keeps a bounded table and spills sorted
	// runs of partial counts to disk, merging them after its single
	// scan — results are bit-identical either way, and Stats reports the
	// spill activity (SpillRuns, SpillBytes).
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
	// concurrently or pack from column lists, and K-MH shards columns
	// (HammingLSH aside: its fold ladder is a whole-data structure).
	Workers int
	// Recorder, when non-nil, receives per-phase spans, counters and
	// gauges as the run progresses (see the Counter*/Gauge*/Phase*
	// constants). Stats is populated from the same event stream, so a
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
	// HammingLSH (its fold ladder ingests the materialised matrix) and
	// Apriori (support counting is defined over all rows) return an
	// error for Window > 0.
	Window int
	// VerifyKernel selects the verification counting kernel. KernelAuto
	// (the default) runs the packed kernel when the candidate columns
	// would fit comfortably in memory as bitmaps — and, under a
	// MemoryBudget, only when all of them fit the budget — falling back
	// to the scalar counter kernels otherwise. The packed kernel holds a
	// sparse column (fewer ones than 1/512 of the rows) as its row list
	// and the rest as bitmaps. KernelPacked forces packing (batching the
	// candidate columns against any MemoryBudget); KernelScalar forces
	// the scalar kernels. Results are bit-identical across kernels; Stats
	// reports the packed work (PackedWords, PackedBatches).
	VerifyKernel Kernel
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

// Pair is a similar column pair in a Result.
type Pair struct {
	I, J int
	// Estimate is the signature-phase similarity estimate (NaN-free; 0
	// when the scheme attaches none, e.g. LSH bucket collisions).
	Estimate float64
	// Similarity is the exact verified similarity (0 when SkipVerify).
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
	// another — one per arena batch under a budgeted packed kernel;
	// a-priori costs one per level). RowsScanned totals rows delivered
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
	// CompressedBytesRead is the share of BytesRead delivered by
	// compressed-format sources (".carows" files), and
	// SpillBytesCompressed the share of SpillBytes written under the
	// compressed spill codec (both 0 when nothing compressed was moved).
	// CodecRatio is the run's overall compression ratio — the bytes the
	// equivalent uncompressed encodings would have moved, divided by the
	// compressed bytes actually moved — or 0 when no compressed bytes
	// moved at all. A windowed run (Config.Window) crosses the file rows
	// before its window without decoding them, so their logical bytes are
	// not in the numerator while their physical bytes are in the
	// denominator: the ratio describes the rows the run decoded.
	CompressedBytesRead  int64
	SpillBytesCompressed int64
	CodecRatio           float64
	// IORetries counts transient IO errors the file-backed source
	// retried away during this run, and FaultsInjected the faults a
	// fault-injecting FS delivered into its reads (both 0 for healthy
	// disks and in-memory sources).
	IORetries      int64
	FaultsInjected int64
	// PackedWords counts the uint64 AND-popcount word operations the
	// packed verification kernel executed — only candidates whose two
	// columns are both held as bitmaps cost any — and PackedBatches the
	// candidate batches its columns were loaded for (both 0 when
	// verification ran a scalar kernel).
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
// similarity.
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
	return d.run(cfg).similar(nil)
}
