// Package obs is the pipeline observability substrate: a Recorder
// interface receiving per-phase spans, counters and gauges from the
// three-phase template (signatures → candidates → verification), a
// no-op implementation that costs nothing when observability is off,
// and an in-memory Collector with expvar and Prometheus-text export.
//
// The quantities recorded are exactly the ones the paper's analysis is
// stated in: rows scanned per pass (the I/O currency of the
// disk-resident setting), signature cells built (the O(m·k) memory
// term), candidate counter increments (the O(k·S̄·m²) running-time
// term), candidates emitted, pairs verified, and the false positives
// the exact pass prunes.
package obs

import "time"

// Phase names. One span is recorded per executed phase per run.
const (
	// PhaseSignatures is phase 1: the streaming signature pass.
	PhaseSignatures = "signatures"
	// PhaseCandidates is phase 2: in-memory candidate generation.
	// Brute-force and a-priori runs, which have no separate signature
	// or verification pass, account their whole counting pass here.
	PhaseCandidates = "candidates"
	// PhaseVerify is phase 3: the exact pruning pass over the data.
	PhaseVerify = "verify"
)

// Counter names. Counters only ever increase within a run.
const (
	// CounterRowsScanned totals rows delivered across all data passes.
	CounterRowsScanned = "rows_scanned"
	// CounterDataPasses counts sequential scans of the data.
	CounterDataPasses = "data_passes"
	// CounterSignatureCells counts signature values computed in phase 1
	// (k·m for MH/M-LSH, Σ|SIG_i| for bottom-k sketches) — |SIG| in the
	// paper's memory analysis.
	CounterSignatureCells = "signature_cells"
	// CounterIncrements counts phase-2 counter-array increments, the
	// O(k·S̄·m²) term of the Section 3.1 running-time analysis.
	CounterIncrements = "counter_increments"
	// CounterBucketPairs counts LSH bucket pair-additions attempted
	// (including cross-band duplicates).
	CounterBucketPairs = "bucket_pairs"
	// CounterCandidates counts candidate pairs entering verification.
	CounterCandidates = "candidates"
	// CounterVerifyTouches counts per-row pair-counter updates in the
	// verification scan.
	CounterVerifyTouches = "verify_touches"
	// CounterPairsVerified counts pairs surviving exact verification.
	CounterPairsVerified = "pairs_verified"
	// CounterFalsePositives counts candidates eliminated by the exact
	// pass (candidates - verified).
	CounterFalsePositives = "false_positives"
	// CounterTopPairsAttempts counts threshold-lowering retries of a
	// TopPairs query.
	CounterTopPairsAttempts = "toppairs_attempts"
	// CounterIndexBuilds counts builds of a resident sketch's phase-2
	// index: one per sketch object, by the first query that needs it.
	CounterIndexBuilds = "index_builds"
	// CounterBytesRead totals file bytes read across all data passes
	// (absent for in-memory sources, which read no files).
	CounterBytesRead = "bytes_read"
	// CounterShards counts the bounded row blocks the streamed fan-out
	// strategies broadcast to workers.
	CounterShards = "shards_streamed"
	// CounterSpillRuns and CounterSpillBytes report the sorted runs the
	// budgeted verification pass spilled to disk when its counter table
	// exceeded Config.MemoryBudget.
	CounterSpillRuns  = "spill_runs"
	CounterSpillBytes = "spill_bytes"
	// CounterCompressedBytesRead totals the on-disk bytes delivered by
	// compressed-format sources (".carows"), the compressed share of
	// CounterBytesRead. CounterSpillBytesCompressed totals the spill-run
	// bytes written under the compressed spill codec, the compressed
	// share of CounterSpillBytes.
	CounterCompressedBytesRead  = "compressed_bytes_read"
	CounterSpillBytesCompressed = "spill_bytes_compressed"
	// CounterIORetries counts transient IO errors the file-backed
	// source retried away (absent on healthy disks and in-memory runs).
	CounterIORetries = "io_retries"
	// CounterFaultsInjected counts faults a fault-injecting FS (see
	// internal/faultfs) delivered into the run's reads — nonzero only
	// under chaos harnesses, never in production.
	CounterFaultsInjected = "faults_injected"
	// CounterPackedWords counts the uint64 AND-popcount word operations
	// the packed verification kernel executed (pairs of two bitmap
	// columns; a sparse column is a row list and costs none) and
	// CounterPackedBatches the candidate batches its columns were loaded
	// for (both absent on the scalar kernel).
	CounterPackedWords   = "packed_words"
	CounterPackedBatches = "packed_batches"
	// CounterPairsSampled counts the in-row pair draws the BPS sampler
	// inspected (Σ b·(b-1)/2 over basket sizes b — the scheme's
	// candidate-phase work measure, playing the role CounterIncrements
	// plays for the counting schemes). CounterSampleAccepts counts the
	// draws the sampler tallied — kept by the biased acceptance test, of
	// pairs whose supports admit the candidate filter — and
	// CounterSampleDups the tallied draws for pairs already tallied
	// (accepts minus distinct tallied pairs — the dedup work the exact
	// merge performs). All three are absent for the other schemes.
	CounterPairsSampled  = "pairs_sampled"
	CounterSampleAccepts = "sample_accepts"
	CounterSampleDups    = "sample_dups"
	// CounterRowsAppended counts rows folded into an incremental Ingest
	// (appended batches and catch-up scans), CounterStatesMerged the
	// fold-state merges performed to answer queries or combine window
	// checkpoints, and CounterWindowsExpired the per-window checkpoints
	// dropped by sliding-window expiry. All three are absent in batch
	// runs.
	CounterRowsAppended   = "rows_appended"
	CounterStatesMerged   = "states_merged"
	CounterWindowsExpired = "windows_expired"
	// CounterDistWorkers counts worker subprocesses launched by the
	// scale-out coordinator (including replacements after a crash),
	// CounterDistBytesShipped the protocol payload bytes moved over the
	// coordinator/worker pipes in both directions, and CounterDistRestarts
	// the failed row/column ranges that were re-dispatched to a fresh
	// worker. All three are absent in single-process runs.
	CounterDistWorkers      = "dist_workers"
	CounterDistBytesShipped = "dist_bytes_shipped"
	CounterDistRestarts     = "dist_restarts"
)

// Gauge names. Gauges record the last value set.
const (
	// GaugeSignatureWorkers..GaugeVerifyWorkers record the worker
	// budget each phase ran under.
	GaugeSignatureWorkers = "signature_workers"
	GaugeCandidateWorkers = "candidate_workers"
	GaugeVerifyWorkers    = "verify_workers"
	// GaugeSignatureBytes approximates the resident memory of the
	// signature structures ("main memory" in the paper's model).
	GaugeSignatureBytes = "signature_bytes"
	// GaugeIndexBytes is the resident size of the phase-2 index a
	// resident sketch keeps beside itself (12 bytes a signature cell plus
	// the K-MH column offsets); set by every query that used one.
	GaugeIndexBytes = "index_bytes"
	// GaugeCodecRatio records the run's overall compression ratio —
	// uncompressed-equivalent bytes over bytes actually moved, across
	// compressed file reads and spill writes — as a fixed-point
	// percentage (ratio x 100, so 330 means 3.3x). Unset when the run
	// moved no compressed bytes.
	GaugeCodecRatio = "codec_ratio"
)

// Recorder receives observability events from a pipeline run. All
// methods may be called from multiple goroutines. Implementations must
// not block: they sit between pipeline phases and, for counters, at
// shard boundaries of the parallel paths.
type Recorder interface {
	// PhaseStart marks the beginning of a phase.
	PhaseStart(phase string)
	// PhaseEnd marks the end of a phase with its measured duration.
	// Every PhaseStart is followed by exactly one PhaseEnd.
	PhaseEnd(phase string, d time.Duration)
	// Add increments a named counter by n (n >= 0).
	Add(counter string, n int64)
	// SetGauge records the current value of a named gauge.
	SetGauge(gauge string, v int64)
}

// Tick reports progress within one phase: done units finished out of
// total. The unit is phase-specific (rows for data scans, columns or
// bands for candidate generation, candidate pairs for sharded
// verification). Ticks may arrive concurrently and out of order from
// worker goroutines; consumers that need monotonicity must enforce it.
type Tick func(done, total int64)

// ProgressFunc is the user-facing progress callback: phase names the
// pipeline phase, done/total follow Tick semantics. The pipeline
// serialises calls and drops out-of-order updates, so done is
// non-decreasing within a phase and reaches total when the phase
// completes.
type ProgressFunc func(phase string, done, total int64)

// nopRecorder is the zero-cost default. Methods are value receivers on
// an empty struct so calls through the interface never allocate.
type nopRecorder struct{}

func (nopRecorder) PhaseStart(string)              {}
func (nopRecorder) PhaseEnd(string, time.Duration) {}
func (nopRecorder) Add(string, int64)              {}
func (nopRecorder) SetGauge(string, int64)         {}

// Nop returns the no-op Recorder.
func Nop() Recorder { return nopRecorder{} }

// OrNop returns r, or the no-op recorder when r is nil.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return nopRecorder{}
	}
	return r
}

// tee duplicates events to two recorders.
type tee struct{ a, b Recorder }

func (t tee) PhaseStart(phase string)                { t.a.PhaseStart(phase); t.b.PhaseStart(phase) }
func (t tee) PhaseEnd(phase string, d time.Duration) { t.a.PhaseEnd(phase, d); t.b.PhaseEnd(phase, d) }
func (t tee) Add(counter string, n int64)            { t.a.Add(counter, n); t.b.Add(counter, n) }
func (t tee) SetGauge(gauge string, v int64)         { t.a.SetGauge(gauge, v); t.b.SetGauge(gauge, v) }

// Tee returns a Recorder forwarding every event to both a and b. Nil
// arguments are replaced by the no-op recorder.
func Tee(a, b Recorder) Recorder {
	if a == nil {
		return OrNop(b)
	}
	if b == nil {
		return a
	}
	return tee{a: a, b: b}
}
