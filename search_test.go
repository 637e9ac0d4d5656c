package assocmine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"assocmine/internal/candidate"
	"assocmine/internal/driver"
	"assocmine/internal/fold"
	"assocmine/internal/obs"
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
						in, c, err := sc.s.query(d, c)
						if err != nil {
							return nil, err
						}
						in.Column = col
						return similar(in, c, driver.Mine)
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
						spills += search.Counter(obs.CounterSpillRuns)
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
	if got, want := search.Counter(obs.CounterTopPairsAttempts), ladder.Counter(obs.CounterTopPairsAttempts); got != want {
		t.Fatalf("%s: %d steps replayed, the loop ran %d", name, got, want)
	}
	for _, c := range []string{obs.CounterIncrements, obs.CounterBucketPairs, obs.CounterCandidates, obs.CounterPairsVerified, obs.CounterVerifyTouches, obs.CounterDataPasses, obs.CounterRowsScanned} {
		if got, most := search.Counter(c), ladder.Counter(c); got > most {
			t.Fatalf("%s: %s = %d, the loop's %d", name, c, got, most)
		}
	}
}

// TestResidentMemos: what a *Signatures keeps beside its run index —
// the buckets of the last band layout, §6's pair table — is built by the
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
		if s.index.Kept != nil || s.bands.Kept != nil || s.table.Kept != nil || s.bands.Limit != memoLimit || s.table.Limit != memoLimit {
			t.Fatalf("a new sketch keeps %v %v %v under limits %d %d", s.index.Kept, s.bands.Kept, s.table.Kept, s.bands.Limit, s.table.Limit)
		}
		return signaturesKeeping(s.sig, limit)
	}
	ruleCfg := Config{Algorithm: Rules, Threshold: 0.7, Seed: 3}
	bandCfg := func(l int, ctx context.Context, rec Recorder) Config {
		return Config{Algorithm: MinLSH, Threshold: 0.6, R: 3, L: l, Seed: 3, Context: ctx, Recorder: rec}
	}

	sig := fresh(memoLimit)
	wantRules, err := SimilarPairs(d, Config{Algorithm: Rules, Threshold: 0.7, Seed: 3, K: 60})
	if err != nil || len(wantRules.Pairs) == 0 {
		t.Fatalf("%d rules, %v", len(wantRules.Pairs), err)
	}
	wantPairs, err := SimilarPairs(d, Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 20, Seed: 3})
	if err != nil || len(wantPairs.Pairs) == 0 {
		t.Fatalf("%d pairs, %v", len(wantPairs.Pairs), err)
	}

	// The §6 pass honours its context — before it starts, and under a
	// deadline already passed — with and without the exact pass, and a
	// dead pass keeps nothing.
	for _, ctx := range []context.Context{cancelled, expired} {
		for _, skip := range []bool{false, true} {
			cfg := ruleCfg
			cfg.Context, cfg.SkipVerify = ctx, skip
			if res, err := SimilarPairsWith(d, sig, cfg); res != nil || !errors.Is(err, ctx.Err()) {
				t.Fatalf("skip=%v under %v: %v, %v", skip, ctx.Err(), res, err)
			}
			cfg.K = 60
			if res, err := SimilarPairs(d, cfg); res != nil || !errors.Is(err, ctx.Err()) {
				t.Fatalf("folding run, skip=%v under %v: %v, %v", skip, ctx.Err(), res, err)
			}
		}
	}
	if _, err := SimilarPairsWith(d, sig, bandCfg(20, cancelled, nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled first MinLSH query: %v", err)
	}
	if sig.table.Kept != nil || sig.bands.Kept != nil || sig.index.Kept != nil {
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
				res, err := SimilarPairsWith(d, sig, ruleCfg)
				if errs[g] = err; err == nil && !reflect.DeepEqual(res.Pairs, wantRules.Pairs) {
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
	tab, bands := sig.table.Kept, sig.bands.Kept
	if tab == nil || bands == nil || sig.index.Kept == nil {
		t.Fatalf("kept: table %v, buckets %v, run index %v", tab, bands, sig.index.Kept)
	}
	if got := coll.Counter(obs.CounterIndexBuilds); got != 1 {
		t.Errorf("%d bucket builds for six concurrent first queries", got)
	}
	if got, want := coll.Gauge(obs.GaugeIndexBytes), int64(12*20*d.NumCols()); got != want {
		t.Errorf("index_bytes = %d, want %d", got, want)
	}
	if _, err := SimilarPairsWith(d, sig, Config{Algorithm: Rules, Threshold: 0.3, Seed: 3, SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := TopColumnsWith(d, sig, 4, 3, bandCfg(20, nil, coll), 0.3); err != nil {
		t.Fatal(err)
	}
	if sig.table.Kept != tab || sig.bands.Kept != bands || coll.Counter(obs.CounterIndexBuilds) != 1 {
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
	if !reflect.DeepEqual(other.Pairs, wantOther.Pairs) || sig.bands.Kept == bands || coll.Counter(obs.CounterIndexBuilds) != 2 {
		t.Errorf("second layout: %d pairs (want %d), %d builds", len(other.Pairs), len(wantOther.Pairs), coll.Counter(obs.CounterIndexBuilds))
	}

	// Above the bound nothing is built to be kept, and the answers are
	// the same.
	buckets := candidate.IndexBytes(candidate.Params{Algo: fold.MinLSH, L: 20}, fold.Sketch{MH: sig.sig})
	small := fresh(min(buckets, rules.TableBytes(sig.index.Kept)) - 1)
	coll = NewCollector()
	for range 2 {
		res, err := SimilarPairsWith(d, small, ruleCfg)
		if err != nil || !reflect.DeepEqual(res.Pairs, wantRules.Pairs) {
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
	if small.table.Kept != nil || small.bands.Kept != nil || coll.Counter(obs.CounterIndexBuilds) != 0 {
		t.Errorf("over the bound: kept %v %v, %d builds", small.table.Kept, small.bands.Kept, coll.Counter(obs.CounterIndexBuilds))
	}
}

// TestResidentCounts: a *Sketches keeps its intersection counts from the
// first query that scans every column — a SimilarPairsWith or a
// TopPairsWith — and not from a TopColumnsWith query nor a cancelled
// one. At 1 and 4 workers, first query and later ones, every answer, its
// Stats but the clocks and its work counters equal those of a sketch
// whose bound is over its limit, which keeps none, and the pairs those
// of a folding run.
func TestResidentCounts(t *testing.T) {
	d := clusteredDataset(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	base, err := ComputeSketches(d, 48, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.counts.Limit != memoLimit || base.counts.Kept != nil {
		t.Fatalf("a new sketch keeps %v under limit %d", base.counts.Kept, base.counts.Limit)
	}
	want, err := SimilarPairs(d, Config{Algorithm: KMinHash, Threshold: 0.3, Seed: 3, K: 48})
	if err != nil || len(want.Pairs) < 10 {
		t.Fatalf("%d pairs, %v", len(want.Pairs), err)
	}
	type answer struct {
		pairs, top, col []Pair
		stats           Stats
		work            [8]int64
		builds          int64
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Algorithm: KMinHash, Threshold: 0.3, Seed: 3, Workers: workers}
		ask := func(s *Sketches) (a answer) {
			t.Helper()
			rec := NewCollector()
			c := cfg
			c.Recorder = rec
			res, err := SimilarPairsWith(d, s, c)
			if err != nil {
				t.Fatal(err)
			}
			a.pairs, a.stats = res.Pairs, res.Stats
			a.stats.SignatureTime, a.stats.CandidateTime, a.stats.VerifyTime = 0, 0, 0
			if a.top, err = TopPairsWith(d, s, 7, c, 0.1); err != nil {
				t.Fatal(err)
			}
			if a.col, err = TopColumnsWith(d, s, 9, 4, c, 0.1); err != nil {
				t.Fatal(err)
			}
			for i, name := range []string{obs.CounterIncrements, obs.CounterCandidates, obs.CounterPairsVerified, obs.CounterFalsePositives,
				obs.CounterVerifyTouches, obs.CounterTopPairsAttempts, obs.CounterDataPasses, obs.CounterRowsScanned} {
				a.work[i] = rec.Counter(name)
			}
			a.builds = rec.Counter(obs.CounterIndexBuilds)
			return a
		}
		keeps, none := sketchesKeeping(base.sk, memoLimit), sketchesKeeping(base.sk, 1)
		dead := cfg
		dead.Context = cancelled
		if _, err := SimilarPairsWith(d, keeps, dead); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled first query: %v", err)
		}
		if _, err := TopPairsWith(d, keeps, 5, dead, 0.2); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled first search: %v", err)
		}
		if _, err := TopColumnsWith(d, keeps, 3, 5, cfg, 0.2); err != nil {
			t.Fatal(err)
		}
		if keeps.counts.Kept != nil || keeps.index.Kept == nil {
			t.Fatalf("workers=%d: a dead or one-column first query kept counts %v (index %v)", workers, keeps.counts.Kept, keeps.index.Kept)
		}
		for round := range 2 {
			got, over := ask(keeps), ask(none)
			if !reflect.DeepEqual(got.pairs, want.Pairs) || len(got.top) == 0 || len(got.col) == 0 {
				t.Fatalf("workers=%d round %d: %d pairs (a folding run's %d), %d top pairs, %d neighbours", workers, round, len(got.pairs), len(want.Pairs), len(got.top), len(got.col))
			}
			// The one build of a round: the counts here (the column query
			// kept the index), the index over the limit (it keeps no counts).
			if got.builds != int64(1-round) || over.builds != got.builds {
				t.Fatalf("workers=%d round %d: %d builds keeping counts, %d keeping none", workers, round, got.builds, over.builds)
			}
			if !reflect.DeepEqual(got, over) {
				t.Fatalf("workers=%d round %d: keeping counts answers\n%+v\nkeeping none\n%+v", workers, round, got, over)
			}
			if keeps.counts.Kept == nil || none.counts.Kept != nil {
				t.Fatalf("workers=%d round %d: kept %v under the limit, %v over it", workers, round, keeps.counts.Kept, none.counts.Kept)
			}
		}
	}
}
