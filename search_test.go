package assocmine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/rules"
)

// TestSearchMatchesLadder: the one-scan search of TopPairsWith and
// TopColumnsWith returns, pair for pair and field for field, what the
// retry loop it replaced returns — topLoop over whole SimilarPairsWith
// runs (over whole one-column runs for TopColumnsWith) — for every
// scheme a resident sketch hosts (a *Signatures turns away a band
// layout that needs sampling, so MinLSH is the disjoint layout here;
// internal/candidate's TestSearchStepsMatchKernels covers the sampled
// one), answer size, floor and verification mode, and never does more
// work than the loop did.
func TestSearchMatchesLadder(t *testing.T) {
	spillDir := t.TempDir()
	for _, seed := range []uint64{3, 17, 101} {
		d := clusteredDatasetSeeded(t, 29+seed)
		sig, err := ComputeSignatures(d, 60, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ComputeSketches(d, 48, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []struct {
			name string
			s    Resident
			cfg  Config
		}{
			{"MinHash", sig, Config{Algorithm: MinHash}},
			{"KMinHash", sk, Config{Algorithm: KMinHash}},
			{"MinLSH", sig, Config{Algorithm: MinLSH, R: 3, L: 20}},
		} {
			for _, mode := range []struct {
				name string
				set  func(*Config)
			}{
				{"verified", func(*Config) {}},
				{"skip-verify", func(c *Config) { c.SkipVerify = true }},
				{"spill", func(c *Config) { c.MemoryBudget, c.SpillDir = 1024, spillDir }},
				{"window", func(c *Config) { c.Window = 600 }},
			} {
				cfg := sc.cfg
				cfg.Seed, cfg.Threshold = seed, 0.9
				mode.set(&cfg)
				column := func(col int) func(Config) (*Result, error) {
					return func(c Config) (*Result, error) {
						r, pre, err := sc.s.query(d, c)
						if err != nil {
							return nil, err
						}
						r.column = col
						return r.similar(pre)
					}
				}
				answers, spills := 0, int64(0)
				for _, floor := range []float64{0.05, 0.3, 0.6, 0.9} {
					for _, n := range []int{1, 5, 25, 10000} {
						name := func(what string) string {
							return sc.name + "/" + mode.name + "/" + what
						}
						ladder, search := NewCollector(), NewCollector()
						cfg.Recorder = ladder
						want, err := topLoop(n, cfg, floor, func(c Config) (*Result, error) { return SimilarPairsWith(d, sc.s, c) })
						if err != nil {
							t.Fatal(err)
						}
						cfg.Recorder = search
						got, err := TopPairsWith(d, sc.s, n, cfg, floor)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d %s n %d floor %v:\n got %v\nwant %v", seed, name("pairs"), n, floor, got, want)
						}
						noMoreWork(t, name("pairs"), search, ladder)
						answers += len(want)
						spills += search.Counter(CounterSpillRuns)
						for _, col := range []int{0, 9, 30, 50, d.NumCols() - 1} { // the last one is empty
							ladder, search = NewCollector(), NewCollector()
							cfg.Recorder = ladder
							want, err := topLoop(n, cfg, floor, column(col))
							if err != nil {
								t.Fatal(err)
							}
							cfg.Recorder = search
							got, err := TopColumnsWith(d, sc.s, col, n, cfg, floor)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("seed %d %s col %d n %d floor %v:\n got %v\nwant %v", seed, name("column"), col, n, floor, got, want)
							}
							noMoreWork(t, name("column"), search, ladder)
							answers += len(want)
						}
					}
				}
				if answers < 500 || (spills > 0) != (mode.name == "spill") {
					t.Errorf("seed %d %s/%s: %d pairs compared, %d spill runs", seed, sc.name, mode.name, answers, spills)
				}
			}
		}
	}
	for _, bad := range []struct {
		n     int
		start float64
		floor float64
	}{{0, 0.9, 0.3}, {3, 0.9, 1.5}, {3, 0.2, 0.3}} {
		d := clusteredDataset(t)
		sk, err := ComputeSketches(d, 48, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TopPairsWith(d, sk, bad.n, Config{Threshold: bad.start}, bad.floor); err == nil {
			t.Errorf("search accepted n=%d start=%v floor=%v", bad.n, bad.start, bad.floor)
		}
	}
}

// noMoreWork: the search replays as many steps as the loop ran, and
// counts, verifies and scans no more than it.
func noMoreWork(t *testing.T, name string, search, ladder *Collector) {
	t.Helper()
	if got, want := search.Counter(CounterTopPairsAttempts), ladder.Counter(CounterTopPairsAttempts); got != want {
		t.Fatalf("%s: %d steps replayed, the loop ran %d", name, got, want)
	}
	for _, c := range []string{CounterIncrements, CounterBucketPairs, CounterCandidates, CounterPairsVerified, CounterVerifyTouches, CounterDataPasses, CounterRowsScanned} {
		if got, most := search.Counter(c), ladder.Counter(c); got > most {
			t.Fatalf("%s: %s = %d, the loop's %d", name, c, got, most)
		}
	}
}

// TestMemoLifetime is the memo's contract, under -race: concurrent
// first queries build once, a failed build keeps nothing, one slot
// holds the last value ok accepted or build made, and a value over the
// limit is neither built nor kept.
func TestMemoLifetime(t *testing.T) {
	type val struct{ key int }
	var m memo[*val]
	coll := NewCollector()
	var builds int
	get := func(size int64, key int) (*val, error) {
		return m.get(coll, size, func(v *val) bool { return v.key == key }, func() (*val, error) {
			builds++ // under the memo's lock
			time.Sleep(time.Millisecond)
			return &val{key}, nil
		})
	}
	if v, err := (*memo[*val])(nil).get(coll, 1, nil, nil); v != nil || err != nil {
		t.Fatalf("nil memo: %v, %v", v, err)
	}
	boom := errors.New("boom")
	if v, err := m.get(coll, 1, nil, func() (*val, error) { return nil, boom }); v != nil || err != boom || m.v != nil {
		t.Fatalf("failed build: %v, %v, kept %v", v, err, m.v)
	}
	var wg sync.WaitGroup
	got := make([]*val, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = get(10, 1)
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("concurrent first gets returned %v and %v", v, got[0])
		}
	}
	if builds != 1 || coll.Counter(CounterIndexBuilds) != 1 || coll.Gauge(GaugeIndexBytes) != 10 {
		t.Fatalf("%d builds, index_builds %d, index_bytes %d", builds, coll.Counter(CounterIndexBuilds), coll.Gauge(GaugeIndexBytes))
	}
	if v, _ := get(10, 2); v == nil || v.key != 2 || m.v != v || builds != 2 {
		t.Fatalf("another key: %v, kept %v after %d builds", v, m.v, builds)
	}
	m.limit = 16
	if v, _ := get(17, 3); v != nil || m.v.key != 2 || builds != 2 {
		t.Fatalf("over the limit: %v, kept %v after %d builds", v, m.v, builds)
	}
	if v, _ := get(16, 3); v == nil || v.key != 3 || builds != 3 {
		t.Fatalf("at the limit: %v after %d builds", v, builds)
	}
}

// TestResidentMemos: what a *Signatures keeps beside its run index —
// the buckets of the last band layout, §6's triangle — is built by the
// first query that needs it and by no constructor, once however many
// queries arrive first, not by a cancelled query, and not at all above
// the bound, where every query still answers the same.
func TestResidentMemos(t *testing.T) {
	d := clusteredDataset(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	fresh := func(limit int64) *Signatures {
		s, err := ComputeSignatures(d, 60, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.index.v != nil || s.bands.v != nil || s.triangle.v != nil || s.bands.limit != memoLimit || s.triangle.limit != memoLimit {
			t.Fatalf("a new sketch keeps %v %v %v under limits %d %d", s.index.v, s.bands.v, s.triangle.v, s.bands.limit, s.triangle.limit)
		}
		return signaturesKeeping(s.sig, s.seed, s.rows, limit)
	}
	ruleCfg := RuleConfig{MinConfidence: 0.7, Seed: 3}
	bandCfg := func(l int, ctx context.Context, rec Recorder) Config {
		return Config{Algorithm: MinLSH, Threshold: 0.6, R: 3, L: l, Seed: 3, Context: ctx, Recorder: rec}
	}

	sig := fresh(memoLimit)
	wantRules, err := MineRules(d, RuleConfig{MinConfidence: 0.7, Seed: 3, K: 60})
	if err != nil || len(wantRules.Rules) == 0 {
		t.Fatalf("%d rules, %v", len(wantRules.Rules), err)
	}
	wantPairs, err := SimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 20, Seed: 3})
	if err != nil || len(wantPairs.Pairs) == 0 {
		t.Fatalf("%d pairs, %v", len(wantPairs.Pairs), err)
	}

	// The §6 sweep honours its context — before it starts, and under a
	// deadline already passed — with and without the exact pass, and a
	// dead sweep keeps nothing.
	for _, ctx := range []context.Context{cancelled, expired} {
		for _, skip := range []bool{false, true} {
			cfg := ruleCfg
			cfg.Context, cfg.SkipVerify = ctx, skip
			if res, err := MineRulesWithSignatures(d, sig, cfg); res != nil || !errors.Is(err, ctx.Err()) {
				t.Fatalf("skip=%v under %v: %v, %v", skip, ctx.Err(), res, err)
			}
			cfg.K = 60
			if res, err := MineRules(d, cfg); res != nil || !errors.Is(err, ctx.Err()) {
				t.Fatalf("folding run, skip=%v under %v: %v, %v", skip, ctx.Err(), res, err)
			}
		}
	}
	if _, err := SimilarPairsWith(d, sig, bandCfg(20, cancelled, nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled first MinLSH query: %v", err)
	}
	if sig.triangle.v != nil || sig.bands.v != nil {
		t.Fatal("a dead first query kept what it was building")
	}

	coll := NewCollector()
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				res, err := MineRulesWithSignatures(d, sig, ruleCfg)
				if errs[g] = err; err == nil && !reflect.DeepEqual(res.Rules, wantRules.Rules) {
					errs[g] = errors.New("rules differ from the folding run's")
				}
				return
			}
			res, err := SimilarPairsWith(d, sig, bandCfg(20, nil, coll))
			if errs[g] = err; err == nil && !reflect.DeepEqual(res.Pairs, wantPairs.Pairs) {
				errs[g] = errors.New("pairs differ from the folding run's")
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	tri, bands := sig.triangle.v, sig.bands.v
	if tri == nil || bands == nil || sig.index.v != nil {
		t.Fatalf("kept: triangle %v, buckets %v, run index %v", tri, bands, sig.index.v)
	}
	if got := coll.Counter(CounterIndexBuilds); got != 1 {
		t.Errorf("%d bucket builds for six concurrent first queries", got)
	}
	if got, want := coll.Gauge(GaugeIndexBytes), int64(12*20*d.NumCols()); got != want {
		t.Errorf("index_bytes = %d, want %d", got, want)
	}
	if _, err := MineRulesWithSignatures(d, sig, RuleConfig{MinConfidence: 0.3, Seed: 3, SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := TopColumnsWith(d, sig, 4, 3, bandCfg(20, nil, coll), 0.3); err != nil {
		t.Fatal(err)
	}
	if sig.triangle.v != tri || sig.bands.v != bands || coll.Counter(CounterIndexBuilds) != 1 {
		t.Error("a later query rebuilt what the sketch keeps")
	}
	// One slot: another layout replaces the buckets and answers as a run
	// of its own does.
	other, err := SimilarPairsWith(d, sig, bandCfg(12, nil, coll))
	if err != nil {
		t.Fatal(err)
	}
	wantOther, err := SimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.Pairs, wantOther.Pairs) || sig.bands.v == bands || coll.Counter(CounterIndexBuilds) != 2 {
		t.Errorf("second layout: %d pairs (want %d), %d builds", len(other.Pairs), len(wantOther.Pairs), coll.Counter(CounterIndexBuilds))
	}

	// Above the bound nothing is built to be kept, and the answers are
	// the same.
	buckets := candidate.IndexBytes(candidate.Params{Algo: fold.MinLSH, L: 20}, fold.Sketch{MH: sig.sig})
	small := fresh(min(buckets, rules.TriangleBytes(d.NumCols())) - 1)
	coll = NewCollector()
	for range 2 {
		res, err := MineRulesWithSignatures(d, small, ruleCfg)
		if err != nil || !reflect.DeepEqual(res.Rules, wantRules.Rules) {
			t.Fatalf("over-bound rules: %v", err)
		}
		ps, err := SimilarPairsWith(d, small, bandCfg(20, nil, coll))
		if err != nil || !reflect.DeepEqual(ps.Pairs, wantPairs.Pairs) {
			t.Fatalf("over-bound pairs: %v", err)
		}
		top, err := TopColumnsWith(d, small, 4, 3, bandCfg(20, nil, coll), 0.3)
		wantTop, _ := TopColumnsWith(d, sig, 4, 3, bandCfg(20, nil, nil), 0.3)
		if err != nil || len(top) == 0 || !reflect.DeepEqual(top, wantTop) {
			t.Fatalf("over-bound column search: %v, %v", top, err)
		}
	}
	if small.triangle.v != nil || small.bands.v != nil || coll.Counter(CounterIndexBuilds) != 0 {
		t.Errorf("over the bound: kept %v %v, %d builds", small.triangle.v, small.bands.v, coll.Counter(CounterIndexBuilds))
	}
}
