package main

import (
	"fmt"
	"sort"
)

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json
// repeats these tables; the smoke test fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the worsening, as a share of the parent's median, that counts as a regression
}

// endToEnd is what a user of the system sees, reported by every
// workload. The builder's rule for a bound is three times the quartile
// spread the metric shows over ten seeds. On the 2-core sizing box the
// calibrated times spread by 4–18 % and peak_rss_mb by 2–20 % (AA.md),
// so the rule puts all five at the 25 % a bound may be, and not at the
// issue's 5 % and 10 %: those criteria are not met on this box (README.md,
// "Timing protocol"). ok_ratio and recall are exact at a fixed seed;
// their bounds only leave room for recall to differ between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"recall", "ratio", "higher", 0.02},
}

func lower(unit string, names ...string) []metricDef  { return defs("lower", unit, names) }
func higher(unit string, names ...string) []metricDef { return defs("higher", unit, names) }

func defs(better, unit string, names []string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer is every single-layer metric, named after the repo's
// packages. A workload reports 0 for a layer it does not run — which is
// also the "should not move" prediction for that pairing.
var perLayer = concat(
	// the harness itself
	lower("s", "bench.gen_s", "bench.warmup_round_s", "bench.wall_raw_s", "bench.setup_raw_s"),
	lower("ms", "bench.calib_ms"),
	lower("ratio", "bench.warmup_ratio", "bench.round_iqr_ratio", "bench.trace_overhead_ratio", "bench.unattributed_ratio", "bench.calib_scale"),
	higher("count", "bench.rounds", "bench.setup_runs"),
	// untraced wall per segment of the round (median over the rounds)
	lower("s", "seg.mh_arows_s", "seg.kmh_carows_s", "seg.dist_mh_2w_s",
		"seg.mh_rowsort_s", "seg.kmh_hashcount_s", "seg.mlsh_banding_s", "seg.bps_s",
		"seg.packed_s", "seg.spill_s"),
	higher("MB/s", "matrix.floor_read_mb_per_s", "matrix.decode_arows_mb_per_s", "matrix.decode_carows_mb_per_s"),
	lower("s", "matrix.decode_arows_s", "matrix.decode_carows_s", "matrix.encode_carows_s", "matrix.load_s"),
	lower("ns", "matrix.decode_arows_ns_per_entry", "matrix.decode_carows_ns_per_entry"),
	lower("ratio", "matrix.carows_bytes_ratio"),
	lower("bytes", "matrix.bytes_read"),
	lower("count", "matrix.rows_scanned", "matrix.data_passes"),
	lower("s", "minhash.fold_s", "minhash.merge_s"),
	lower("ns", "minhash.fold_ns_per_entry_hash"),
	lower("count", "minhash.signature_cells"),
	higher("MB/s", "minhash.snapshot_mb_per_s"),
	lower("s", "kminhash.fold_s", "kminhash.merge_s"),
	lower("ns", "kminhash.fold_ns_per_entry"),
	lower("count", "kminhash.updates"),
	lower("s", "candidate.rowsort_s", "candidate.hashcount_kmh_s"),
	lower("ns", "candidate.rowsort_ns_per_cell", "candidate.hashcount_kmh_ns_per_cell"),
	lower("count", "candidate.increments"),
	higher("ratio", "candidate.mh_yield", "candidate.kmh_yield"),
	lower("s", "lsh.banding_s"),
	lower("ns", "lsh.ns_per_cell"),
	lower("count", "lsh.bucket_pairs"),
	higher("ratio", "lsh.yield"),
	lower("s", "bps.supports_s", "bps.sample_s"),
	lower("ns", "bps.ns_per_draw"),
	lower("count", "bps.pairs_sampled"),
	higher("ratio", "bps.accept_ratio", "bps.yield"),
	lower("ratio", "bps.dup_ratio"),
	lower("s", "verify.packed_s", "verify.spill_s"),
	lower("count", "verify.packed_words", "verify.packed_batches", "verify.touches", "verify.spill_runs"),
	lower("ns", "verify.packed_ns_per_word", "verify.popcount_floor_ns_per_word", "verify.scalar_ns_per_touch", "verify.spill_ns_per_touch"),
	lower("bytes", "verify.spill_bytes"),
	lower("ratio", "verify.false_positive_ratio"),
	lower("s", "dist.run_s", "dist.signature_s", "dist.candidate_s", "dist.verify_s", "dist.cpu_s"),
	lower("bytes", "dist.bytes_shipped"),
	lower("count", "dist.jobs", "dist.restarts"),
	lower("ratio", "dist.work_inflation"),
	higher("ratio", "dist.speedup"),
	higher("count", "serve.requests"),
	higher("ratio", "serve.cache_hit_ratio"),
	lower("ms", "serve.hit_p50_ms", "serve.pairs_p50_ms", "serve.pairs_p99_ms",
		"serve.topk_p50_ms", "serve.toppairs_p50_ms", "serve.rules_p50_ms", "serve.expr_p50_ms",
		"serve.refresh_p50_ms", "serve.refresh_max_ms", "serve.query_p99_during_refresh_ms"),
	lower("bytes", "serve.resp_bytes_per_req"),
	lower("s", "serve.index_build_s", "serve.restart_s"),
	lower("s", "incr.catchup_s", "incr.snapshot_save_s", "incr.load_s"),
	lower("us", "incr.catchup_us_per_row"),
	lower("bytes", "incr.snapshot_bytes"),
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// metrics holds one run's values. Setting an unknown name or a name
// twice is a harness bug and panics: every metric is emitted exactly
// once.
type metrics struct {
	known map[string]metricDef
	vals  map[string]float64
}

func newMetrics() *metrics {
	m := &metrics{known: map[string]metricDef{}, vals: map[string]float64{}}
	for _, d := range concat(endToEnd, perLayer) {
		m.known[d.Name] = d
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	if _, ok := m.known[name]; !ok {
		panic("bench: unknown metric " + name)
	}
	if _, dup := m.vals[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	m.vals[name] = v
}

// ratio is a / b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export returns the listed metrics, 0 for any the workload did not run.
func (m *metrics) export(list []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(list))
	for _, d := range list {
		out[d.Name] = metricValue{m.vals[d.Name], d.Unit}
	}
	return out
}

// table renders every metric the run set, by name, with its unit.
func (m *metrics) table() string {
	names := make([]string, 0, len(m.vals))
	for n := range m.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  %-40s %16.6g %s\n", n, m.vals[n], m.known[n].Unit)
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the p-quantile by Python's statistics.quantiles
// "exclusive" method, the rule the accepting driver applies.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// iqrRatio is the distance between the first and third quartile as a
// share of the median.
func iqrRatio(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

// percentile is the nearest-rank p-th percentile of a latency sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
