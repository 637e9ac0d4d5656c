package assocmine

import (
	"io"
	"net/http"
	"sync"

	"assocmine/internal/obs"
)

// Observability: every SimilarPairs-family run can report per-phase
// spans (start/end and duration), counters (rows scanned, signature
// cells built, candidate counter increments, candidates emitted, pairs
// verified, false positives pruned) and gauges (worker budgets,
// signature memory) to a Recorder, plus coarse progress to a
// ProgressFunc. The default is a no-op that costs nothing on the hot
// path; Stats is always populated from the same event stream, so a
// Collector attached to a run reports numbers that exactly match the
// returned Stats.

// Recorder receives per-phase spans, counters and gauges from a run.
// Implementations must be safe for concurrent use; see NewCollector for
// the ready-made aggregating implementation.
type Recorder = obs.Recorder

// ProgressFunc receives coarse progress: phase is one of
// PhaseSignatures, PhaseCandidates or PhaseVerify; done/total are in
// phase-specific units (rows for data scans, columns or bands for
// candidate generation, candidate pairs for sharded verification).
// Calls are serialised and done is non-decreasing within a phase,
// reaching total when the phase completes.
type ProgressFunc = obs.ProgressFunc

// Collector is a thread-safe Recorder that aggregates events in memory
// and exports them as an expvar variable or in the Prometheus text
// format (WriteTo).
type Collector = obs.Collector

// NewCollector returns an empty metrics Collector.
func NewCollector() *Collector { return obs.NewCollector() }

// PublishMetrics registers the collector in the process-wide expvar
// registry under name (idempotent), making it visible on the standard
// /debug/vars endpoint.
func PublishMetrics(name string, c *Collector) { obs.Publish(name, c) }

// RegisterMetricsHTTP registers the standard observability endpoints
// for c on mux — /metrics in the Prometheus text format and
// /debug/vars with the collector snapshot published under name — the
// same handlers assocfind -metrics-addr and assocserve expose.
func RegisterMetricsHTTP(mux *http.ServeMux, name string, c *Collector) {
	obs.RegisterHTTP(mux, name, c)
}

// Phase names as reported to Recorder and ProgressFunc.
const (
	PhaseSignatures = obs.PhaseSignatures
	PhaseCandidates = obs.PhaseCandidates
	PhaseVerify     = obs.PhaseVerify
)

// Counter and gauge names as reported to Recorder; docs/ALGORITHMS.md
// maps each to the paper quantity it measures.
const (
	CounterRowsScanned      = obs.CounterRowsScanned
	CounterDataPasses       = obs.CounterDataPasses
	CounterSignatureCells   = obs.CounterSignatureCells
	CounterIncrements       = obs.CounterIncrements
	CounterBucketPairs      = obs.CounterBucketPairs
	CounterCandidates       = obs.CounterCandidates
	CounterVerifyTouches    = obs.CounterVerifyTouches
	CounterPairsVerified    = obs.CounterPairsVerified
	CounterFalsePositives   = obs.CounterFalsePositives
	CounterTopPairsAttempts = obs.CounterTopPairsAttempts
	CounterIndexBuilds      = obs.CounterIndexBuilds
	CounterBytesRead        = obs.CounterBytesRead
	CounterShards           = obs.CounterShards
	CounterSpillRuns        = obs.CounterSpillRuns
	CounterSpillBytes       = obs.CounterSpillBytes

	CounterCompressedBytesRead  = obs.CounterCompressedBytesRead
	CounterSpillBytesCompressed = obs.CounterSpillBytesCompressed
	CounterIORetries            = obs.CounterIORetries
	CounterFaultsInjected       = obs.CounterFaultsInjected
	CounterPackedWords          = obs.CounterPackedWords
	CounterPackedBatches        = obs.CounterPackedBatches
	CounterPairsSampled         = obs.CounterPairsSampled
	CounterSampleAccepts        = obs.CounterSampleAccepts
	CounterSampleDups           = obs.CounterSampleDups
	CounterRowsAppended         = obs.CounterRowsAppended
	CounterStatesMerged         = obs.CounterStatesMerged
	CounterWindowsExpired       = obs.CounterWindowsExpired

	GaugeSignatureWorkers = obs.GaugeSignatureWorkers
	GaugeCandidateWorkers = obs.GaugeCandidateWorkers
	GaugeVerifyWorkers    = obs.GaugeVerifyWorkers
	GaugeSignatureBytes   = obs.GaugeSignatureBytes
	GaugeIndexBytes       = obs.GaugeIndexBytes
	GaugeCodecRatio       = obs.GaugeCodecRatio
)

// WriteMetrics renders c in the Prometheus text exposition format.
func WriteMetrics(w io.Writer, c *Collector) error {
	_, err := c.WriteTo(w)
	return err
}

// ExpvarString renders c's snapshot as the JSON value the expvar
// endpoint publishes for it.
func ExpvarString(c *Collector) string { return c.ExpvarFunc().String() }

// progressSink funnels obs.Tick callbacks — possibly concurrent and
// out of order, coming from worker goroutines — into the user's
// ProgressFunc, serialising calls and enforcing per-phase monotonicity.
// A nil sink (progress disabled) hands out nil ticks, so the phases pay
// nothing.
type progressSink struct {
	mu    sync.Mutex
	fn    ProgressFunc
	phase string
	last  int64
	total int64
}

func newProgressSink(fn ProgressFunc) *progressSink {
	if fn == nil {
		return nil
	}
	return &progressSink{fn: fn}
}

// enter starts a phase and returns the Tick its workers should use.
func (p *progressSink) enter(phase string) obs.Tick {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.phase = phase
	p.last = -1
	p.total = 0
	p.mu.Unlock()
	return func(done, total int64) { p.tick(phase, done, total) }
}

func (p *progressSink) tick(phase string, done, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.phase != phase || done <= p.last {
		return
	}
	p.last = done
	p.total = total
	p.fn(phase, done, total)
}

// finish reports phase completion (done == total) unless the last tick
// already did. Phases without fine-grained hooks report (1, 1).
func (p *progressSink) finish(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.phase != phase {
		return
	}
	if p.total <= 0 {
		p.total = 1
	}
	if p.last < p.total {
		p.last = p.total
		p.fn(phase, p.total, p.total)
	}
}
