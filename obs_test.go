package assocmine

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"assocmine/internal/testutil"
)

func obsFixture(t *testing.T) *Dataset {
	t.Helper()
	d, _, err := GenerateSynthetic(SyntheticOptions{
		Rows: 300, Cols: 80, MinDensity: 0.03, MaxDensity: 0.08,
		PairsPerRange: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// lockedRecorder wraps a Collector and additionally records the raw
// event order so tests can assert on it.
type lockedRecorder struct {
	mu     sync.Mutex
	inner  *Collector
	starts []string
	ends   []string
}

func (r *lockedRecorder) PhaseStart(phase string) {
	r.mu.Lock()
	r.starts = append(r.starts, phase)
	r.mu.Unlock()
	r.inner.PhaseStart(phase)
}

func (r *lockedRecorder) PhaseEnd(phase string, d time.Duration) {
	r.mu.Lock()
	r.ends = append(r.ends, phase)
	r.mu.Unlock()
	r.inner.PhaseEnd(phase, d)
}

func (r *lockedRecorder) Add(counter string, n int64)    { r.inner.Add(counter, n) }
func (r *lockedRecorder) SetGauge(gauge string, v int64) { r.inner.SetGauge(gauge, v) }

// expectedPhases lists the phases each algorithm runs, in order.
func expectedPhases(a Algorithm) []string {
	switch a {
	case MinHash, KMinHash, MinLSH:
		return []string{PhaseSignatures, PhaseCandidates, PhaseVerify}
	case HammingLSH:
		return []string{PhaseCandidates, PhaseVerify}
	default: // BruteForce, Apriori: one exact pass
		return []string{PhaseCandidates}
	}
}

// TestRecorderSpansAndStats runs every algorithm serial and parallel
// and checks: exactly one span per executed phase, the collector's
// counters exactly matching the returned Stats, and identical counter
// values (the timing-free ones) between the serial and parallel runs.
func TestRecorderSpansAndStats(t *testing.T) {
	d := obsFixture(t)
	algos := []struct {
		algo Algorithm
		cfg  Config
	}{
		{BruteForce, Config{Threshold: 0.5}},
		{MinHash, Config{Threshold: 0.5, K: 60, Seed: 3}},
		{KMinHash, Config{Threshold: 0.5, K: 60, Seed: 3}},
		{MinLSH, Config{Threshold: 0.5, K: 60, R: 5, L: 12, Seed: 3}},
		{HammingLSH, Config{Threshold: 0.7, Seed: 3}},
		{Apriori, Config{Threshold: 0.5, MinSupport: 0.005}},
	}
	for _, tc := range algos {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Algorithm = tc.algo
			cfg.Workers = workers
			rec := &lockedRecorder{inner: NewCollector()}
			cfg.Recorder = rec
			res, err := SimilarPairs(d, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", tc.algo, workers, err)
			}
			want := expectedPhases(tc.algo)
			if got := rec.starts; !equalStrings(got, want) {
				t.Errorf("%v workers=%d: phase starts %v, want %v", tc.algo, workers, got, want)
			}
			if got := rec.ends; !equalStrings(got, want) {
				t.Errorf("%v workers=%d: phase ends %v, want %v", tc.algo, workers, got, want)
			}
			snap := rec.inner.Snapshot()
			for phase, span := range snap.Spans {
				if span.Count != 1 {
					t.Errorf("%v workers=%d: phase %q has %d spans, want 1", tc.algo, workers, phase, span.Count)
				}
			}
			st := res.Stats
			checks := []struct {
				counter string
				want    int64
			}{
				{CounterCandidates, int64(st.Candidates)},
				{CounterPairsVerified, int64(st.Verified)},
				{CounterFalsePositives, int64(st.FalsePositives)},
				{CounterDataPasses, int64(st.DataPasses)},
				{CounterRowsScanned, st.RowsScanned},
				{CounterSignatureCells, st.SignatureCells},
				{CounterIncrements, st.CandidateIncrements},
				{CounterBucketPairs, st.BucketPairs},
				{CounterVerifyTouches, st.VerifyTouches},
			}
			for _, c := range checks {
				if got := rec.inner.Counter(c.counter); got != c.want {
					t.Errorf("%v workers=%d: counter %q = %d, Stats says %d", tc.algo, workers, c.counter, got, c.want)
				}
			}
			if got := rec.inner.Gauge(GaugeSignatureBytes); got != st.SignatureBytes {
				t.Errorf("%v workers=%d: gauge %q = %d, Stats says %d", tc.algo, workers, GaugeSignatureBytes, got, st.SignatureBytes)
			}
			if st.Verified != st.Candidates-st.FalsePositives {
				t.Errorf("%v workers=%d: Verified %d != Candidates %d - FalsePositives %d", tc.algo, workers, st.Verified, st.Candidates, st.FalsePositives)
			}
		}
	}
}

// TestProgressMonotonic checks that a ProgressFunc sees serialised,
// per-phase monotonically non-decreasing progress that reaches
// done == total for every phase, for every algorithm, serial and
// parallel.
func TestProgressMonotonic(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := obsFixture(t)
	algos := []struct {
		algo Algorithm
		cfg  Config
	}{
		{BruteForce, Config{Threshold: 0.5}},
		{MinHash, Config{Threshold: 0.5, K: 60, Seed: 3}},
		{KMinHash, Config{Threshold: 0.5, K: 60, Seed: 3}},
		{MinLSH, Config{Threshold: 0.5, K: 60, R: 5, L: 12, Seed: 3}},
		{HammingLSH, Config{Threshold: 0.7, Seed: 3}},
		{Apriori, Config{Threshold: 0.5, MinSupport: 0.005}},
	}
	for _, tc := range algos {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Algorithm = tc.algo
			cfg.Workers = workers
			type tick struct {
				phase       string
				done, total int64
			}
			var ticks []tick
			cfg.Progress = func(phase string, done, total int64) {
				ticks = append(ticks, tick{phase, done, total})
			}
			if _, err := SimilarPairs(d, cfg); err != nil {
				t.Fatalf("%v workers=%d: %v", tc.algo, workers, err)
			}
			if len(ticks) == 0 {
				t.Fatalf("%v workers=%d: no progress reported", tc.algo, workers)
			}
			// Within each phase: done strictly increases (the sink drops
			// regressions and duplicates) and ends at total.
			last := map[string]tick{}
			order := []string{}
			for _, tk := range ticks {
				if tk.done < 0 || tk.total <= 0 || tk.done > tk.total {
					t.Errorf("%v workers=%d: out-of-range tick %+v", tc.algo, workers, tk)
				}
				prev, seen := last[tk.phase]
				if seen && tk.done <= prev.done {
					t.Errorf("%v workers=%d: non-monotonic tick %+v after %+v", tc.algo, workers, tk, prev)
				}
				if !seen {
					order = append(order, tk.phase)
				}
				last[tk.phase] = tk
			}
			if want := expectedPhases(tc.algo); !equalStrings(order, want) {
				t.Errorf("%v workers=%d: phases %v, want %v", tc.algo, workers, order, want)
			}
			for phase, tk := range last {
				if tk.done != tk.total {
					t.Errorf("%v workers=%d: phase %q ended at %d/%d", tc.algo, workers, phase, tk.done, tk.total)
				}
			}
		}
	}
}

// TestProgressDoesNotChangeResults: hooked and unhooked runs of the
// same configuration produce identical pairs and work counters.
func TestProgressDoesNotChangeResults(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := obsFixture(t)
	for _, workers := range []int{1, 4} {
		cfg := Config{Algorithm: MinHash, Threshold: 0.5, K: 60, Seed: 3, Workers: workers}
		plain, err := SimilarPairs(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recorder = NewCollector()
		cfg.Progress = func(string, int64, int64) {}
		hooked, err := SimilarPairs(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Pairs) != len(hooked.Pairs) {
			t.Fatalf("workers=%d: %d pairs without hooks, %d with", workers, len(plain.Pairs), len(hooked.Pairs))
		}
		for i := range plain.Pairs {
			if plain.Pairs[i] != hooked.Pairs[i] {
				t.Fatalf("workers=%d: pair %d differs: %+v vs %+v", workers, i, plain.Pairs[i], hooked.Pairs[i])
			}
		}
		if plain.Stats.CandidateIncrements != hooked.Stats.CandidateIncrements ||
			plain.Stats.VerifyTouches != hooked.Stats.VerifyTouches {
			t.Fatalf("workers=%d: work counters differ with hooks attached", workers)
		}
	}
}

// TestSignaturesRecorder checks the precomputed-sketch query path
// reports counters that match its Stats.
func TestSignaturesRecorder(t *testing.T) {
	d := obsFixture(t)
	sig, err := ComputeSignatures(d, 60, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{MinHash, MinLSH} {
		coll := NewCollector()
		res, err := SimilarPairsWithSignatures(d, sig, Config{
			Algorithm: algo, Threshold: 0.5, R: 5, L: 12,
			Recorder: coll,
			Progress: func(string, int64, int64) {},
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got, want := coll.Counter(CounterCandidates), int64(res.Stats.Candidates); got != want {
			t.Errorf("%v: candidates counter %d, Stats %d", algo, got, want)
		}
		if got, want := coll.Counter(CounterPairsVerified), int64(res.Stats.Verified); got != want {
			t.Errorf("%v: verified counter %d, Stats %d", algo, got, want)
		}
		if snap := coll.Snapshot(); snap.Spans[PhaseSignatures].Count != 0 {
			t.Errorf("%v: precomputed-sketch query reported a signature span", algo)
		}
	}
}

// TestProgressiveRecorder checks the band-by-band API reports the same
// totals in its recorder as in Stats.
func TestProgressiveRecorder(t *testing.T) {
	d := obsFixture(t)
	coll := NewCollector()
	res, err := ProgressiveSimilarPairs(d, Config{
		Algorithm: MinLSH, Threshold: 0.5, K: 60, R: 5, L: 12, Seed: 3,
		Recorder: coll,
		Progress: func(string, int64, int64) {},
	}, func(Progress) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coll.Counter(CounterCandidates), int64(res.Stats.Candidates); got != want {
		t.Errorf("candidates counter %d, Stats %d", got, want)
	}
	if got, want := coll.Counter(CounterPairsVerified), int64(res.Stats.Verified); got != want {
		t.Errorf("verified counter %d, Stats %d", got, want)
	}
	snap := coll.Snapshot()
	for _, phase := range []string{PhaseSignatures, PhaseCandidates, PhaseVerify} {
		if snap.Spans[phase].Count != 1 {
			t.Errorf("phase %q: %d spans, want 1", phase, snap.Spans[phase].Count)
		}
	}
}

// TestTopPairsAttemptsCounter checks TopPairs reports its retries.
func TestTopPairsAttemptsCounter(t *testing.T) {
	d := obsFixture(t)
	coll := NewCollector()
	if _, err := TopPairs(d, 3, Config{
		Algorithm: MinHash, Threshold: 0.95, K: 60, Seed: 3, Recorder: coll,
	}, 0.3); err != nil {
		t.Fatal(err)
	}
	if got := coll.Counter(CounterTopPairsAttempts); got < 1 {
		t.Errorf("toppairs_attempts = %d, want >= 1", got)
	}
}

// TestMetricsExportMatchesStats: the Prometheus text and expvar JSON
// of a collector attached to a run carry exactly the numbers Stats
// reports. (The zero-allocation guarantee of the no-op recorder seam
// is asserted in internal/obs.)
func TestMetricsExportMatchesStats(t *testing.T) {
	d := obsFixture(t)
	coll := NewCollector()
	res, err := SimilarPairs(d, Config{
		Algorithm: MinHash, Threshold: 0.5, K: 60, Seed: 3, Recorder: coll,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMetrics(&sb, coll); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"assocmine_candidates_total " + itoa(int64(res.Stats.Candidates)),
		"assocmine_pairs_verified_total " + itoa(int64(res.Stats.Verified)),
		"assocmine_false_positives_total " + itoa(int64(res.Stats.FalsePositives)),
		`assocmine_phase_runs_total{phase="signatures"} 1`,
		`assocmine_phase_runs_total{phase="candidates"} 1`,
		`assocmine_phase_runs_total{phase="verify"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(ExpvarString(coll), `"candidates"`) {
		t.Error("expvar JSON missing counters")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// TestResidentIndexBuiltOncePerSketch: a precomputed sketch builds its
// phase-2 index once, whichever entry point and however many goroutines
// ask first; a cancelled first query builds nothing and leaves the next
// one to; a MinLSH query needs none; a run that folds its own sketch
// reports neither the counter nor the gauge.
func TestResidentIndexBuiltOncePerSketch(t *testing.T) {
	d := obsFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		sig, err := ComputeSignatures(d, 60, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ComputeSketches(d, 48, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		coll := NewCollector()
		cfg := Config{Threshold: 0.5, Workers: workers, Recorder: coll}
		with := func(a Algorithm, ctx context.Context) Config { c := cfg; c.Algorithm, c.Context = a, ctx; return c }

		if _, err := SimilarPairsWithSignatures(d, sig, Config{Algorithm: MinLSH, Threshold: 0.5, R: 3, L: 20, Recorder: coll}); err != nil {
			t.Fatal(err)
		}
		if _, err := SimilarPairsWithSignatures(d, sig, with(MinHash, cancelled)); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled first query: %v", err)
		}
		if _, err := TopColumnsWith(d, sk, 0, 3, with(KMinHash, cancelled), 0.3); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled first column query: %v", err)
		}
		// The MinLSH query kept its layout's buckets; the cancelled ones
		// kept nothing.
		if got := coll.Counter(CounterIndexBuilds); got != 1 {
			t.Fatalf("workers=%d: %d index builds before any counting query could finish one, want the buckets alone", workers, got)
		}

		var wg sync.WaitGroup
		errs := make([]error, 16)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch g % 4 {
				case 0:
					_, errs[g] = SimilarPairsWithSignatures(d, sig, with(MinHash, nil))
				case 1:
					_, errs[g] = TopColumnsWith(d, sig, g, 3, with(MinHash, nil), 0.3)
				case 2:
					_, errs[g] = SimilarPairsWithSketches(d, sk, with(KMinHash, nil))
				case 3:
					_, errs[g] = TopPairsWith(d, sk, 3, with(KMinHash, nil), 0.3)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if got := coll.Counter(CounterIndexBuilds); got != 3 {
			t.Errorf("workers=%d: %d index builds, want the buckets and one run index a sketch", workers, got)
		}
		// 12 bytes a cell, plus the K-MH offsets; the gauge holds the last
		// index used.
		mh := int64(12 * 60 * d.NumCols())
		if got := coll.Gauge(GaugeIndexBytes); got != mh && got <= int64(8*d.NumCols()) {
			t.Errorf("index_bytes = %d", got)
		}
		if _, err := SimilarPairsWithSignatures(d, sig, with(MinHash, nil)); err != nil {
			t.Fatal(err)
		}
		if got := coll.Gauge(GaugeIndexBytes); got != mh {
			t.Errorf("index_bytes after a MinHash query = %d, want %d", got, mh)
		}
	}

	coll := NewCollector()
	if _, err := SimilarPairs(d, Config{Algorithm: MinHash, Threshold: 0.5, K: 60, Recorder: coll}); err != nil {
		t.Fatal(err)
	}
	snap := coll.Snapshot()
	if _, ok := snap.Counters[CounterIndexBuilds]; ok {
		t.Error("a folding run reported index_builds")
	}
	if _, ok := snap.Gauges[GaugeIndexBytes]; ok {
		t.Error("a folding run reported index_bytes")
	}
}
