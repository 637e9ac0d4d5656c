package assocmine

import (
	"io"
	"net/http"

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
// The phases are "signatures", "candidates" and "verify"; counters and
// gauges carry lower-case names such as "rows_scanned",
// "counter_increments", "candidates", "pairs_verified" and
// "signature_workers" — docs/ALGORITHMS.md ("Observability counters and
// the paper's quantities") lists every name with the paper quantity it
// measures. Implementations must be safe for concurrent use; see
// NewCollector for the ready-made aggregating implementation.
type Recorder = obs.Recorder

// ProgressFunc receives coarse progress: phase is "signatures",
// "candidates" or "verify"; done/total are in phase-specific units
// (rows for data scans, columns for candidate generation, bands for
// ProgressiveSimilarPairs' candidates, candidate pairs for sharded
// verification). Calls are serialised and done is non-decreasing within
// a phase, reaching total when the phase completes.
type ProgressFunc = obs.ProgressFunc

// Collector is a thread-safe Recorder that aggregates events in memory
// and exports them as an expvar variable or in the Prometheus text
// format (WriteTo); Counter("rows_scanned") and Gauge("index_bytes")
// read one value, by the names docs/ALGORITHMS.md lists.
type Collector = obs.Collector

// NewCollector returns an empty metrics Collector.
func NewCollector() *Collector { return obs.NewCollector() }

// RegisterMetricsHTTP registers the standard observability endpoints
// for c on mux — /metrics in the Prometheus text format and
// /debug/vars with the collector snapshot published under name — the
// same handlers assocfind -metrics-addr and assocserve expose.
func RegisterMetricsHTTP(mux *http.ServeMux, name string, c *Collector) {
	obs.RegisterHTTP(mux, name, c)
}

// WriteMetrics renders c in the Prometheus text exposition format.
func WriteMetrics(w io.Writer, c *Collector) error {
	_, err := c.WriteTo(w)
	return err
}
