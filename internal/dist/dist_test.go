package dist_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	assocmine "assocmine"
	"assocmine/internal/dist"
)

const beWorkerEnv = "ASSOCDIST_BE_WORKER"

// TestMain doubles as the worker executable: the coordinator re-execs
// the test binary with beWorkerEnv set, and this hook routes the child
// into WorkerMain before any test machinery runs.
func TestMain(m *testing.M) {
	if os.Getenv(beWorkerEnv) == "1" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixture builds a deterministic planted matrix and saves it in both
// binary formats, returning the two paths. Columns 29, 37 and 41 are
// planted near-copies of 11, 3 and 5.
func fixture(t *testing.T) (arows, carows string) {
	t.Helper()
	return plantedFixture(t, 44, [][2]int{{3, 37}, {11, 29}, {5, 41}})
}

// wideFixture plants 80 near-copy pairs over 240 columns: enough
// candidates that a quarter of them is still a list verify.Verify's
// auto kernel packs (16 or more), where fixture's handful never is.
func wideFixture(t *testing.T) (arows, carows string) {
	t.Helper()
	planted := make([][2]int, 80)
	for i := range planted {
		planted[i] = [2]int{i, 160 + i}
	}
	return plantedFixture(t, 240, planted)
}

// plantedFixture fills cols columns at density 0.08 over 220 rows;
// each planted target gets no random fill of its own but copies its
// source with probability 0.9, so the planted pairs sit well above the
// 0.35 threshold every scheme mines at.
func plantedFixture(t *testing.T, cols int, planted [][2]int) (arows, carows string) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const rows = 220
	isTarget := func(c int) bool {
		for _, pc := range planted {
			if c == pc[1] {
				return true
			}
		}
		return false
	}
	data := make([][]int, rows)
	for r := range data {
		for c := 0; c < cols; c++ {
			if !isTarget(c) && rng.Float64() < 0.08 {
				data[r] = append(data[r], c)
			}
		}
	}
	for r := range data {
		row := data[r]
		has := func(c int) bool {
			for _, v := range row {
				if v == c {
					return true
				}
			}
			return false
		}
		for _, pc := range planted {
			if has(pc[0]) && rng.Float64() < 0.9 {
				data[r] = append(data[r], pc[1])
			}
		}
		sortInts(data[r])
	}
	d, err := assocmine.NewDatasetFromRows(cols, data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	arows = filepath.Join(dir, "fixture.arows")
	carows = filepath.Join(dir, "fixture.carows")
	if err := d.SaveRowBinary(arows); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveRowCompressed(carows); err != nil {
		t.Fatal(err)
	}
	return arows, carows
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// workerArgv returns the re-exec command line for this test binary.
func workerArgv(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe}
}

// reference runs the single-process streamed driver on path.
func reference(t *testing.T, path string, cfg assocmine.Config) *assocmine.Result {
	t.Helper()
	fd, err := assocmine.OpenFileDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fd.SimilarPairs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// comparePairs requires the distributed output to match the
// single-process output bit for bit: same pairs, same order, same
// estimate and similarity float bits.
func comparePairs(t *testing.T, label string, got []dist.Pair, want []assocmine.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.I != w.I || g.J != w.J || g.Estimate != w.Estimate || g.Similarity != w.Similarity {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestDistMatchesSingleProcess is the differential core: every
// supported scheme, 1 and 4 worker processes, both binary formats,
// identical output to the streamed single-process driver — the pairs,
// and the pair, phase-2 and verify work counters the coordinator's
// recorder ends with against the single-process Stats — on a dataset
// whose per-worker share of the candidates is below what the auto
// verify kernel packs and on one (one format: a run under the race
// detector spends seconds launching its workers) whose share it packs
// at both worker counts (the packed counters depend on the partition:
// reported, and here only checked to be there or not).
func TestDistMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess fleets")
	}
	schemes := []struct {
		name string
		algo dist.Algo
		cfg  assocmine.Config
	}{
		{"MH", dist.MinHash, assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.35, K: 48, Seed: 7}},
		{"KMH", dist.KMinHash, assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: 0.35, K: 32, Seed: 7}},
		{"MLSH", dist.MinLSH, assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.35, K: 30, R: 3, L: 10, Seed: 7}},
		{"MLSH-sampled", dist.MinLSH, assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.35, K: 12, R: 3, L: 8, Seed: 7}},
		{"BPS", dist.BPS, assocmine.Config{Algorithm: assocmine.BPS, Threshold: 0.35, SampleBudget: 8, Seed: 7}},
	}
	for _, ds := range []struct {
		name  string
		build func(*testing.T) (arows, carows string)
		packs bool
	}{
		{"planted", fixture, false},
		{"wide", wideFixture, true},
	} {
		arows, carows := ds.build(t)
		paths := []string{arows, carows}
		if ds.packs {
			paths = paths[:1]
		}
		for _, sc := range schemes {
			for _, workers := range []int{1, 4} {
				for _, path := range paths {
					label := ds.name + "/" + sc.name + "/" + filepath.Ext(path) + "/w" + string(rune('0'+workers))
					want := reference(t, path, sc.cfg)
					rec := assocmine.NewCollector()
					res, err := dist.Run(dist.Config{
						Recorder:     rec,
						Path:         path,
						Algorithm:    sc.algo,
						Threshold:    sc.cfg.Threshold,
						K:            sc.cfg.K,
						R:            sc.cfg.R,
						L:            sc.cfg.L,
						SampleBudget: sc.cfg.SampleBudget,
						Seed:         sc.cfg.Seed,
						Workers:      workers,
						WorkerArgv:   workerArgv(t),
						Env:          []string{beWorkerEnv + "=1"},
						JobTimeout:   time.Minute,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(want.Pairs) == 0 {
						t.Fatalf("%s: fixture found no pairs; test is vacuous", label)
					}
					comparePairs(t, label, res.Pairs, want.Pairs)
					for counter, stat := range map[string]int64{
						assocmine.CounterCandidates:     int64(want.Stats.Candidates),
						assocmine.CounterIncrements:     want.Stats.CandidateIncrements,
						assocmine.CounterBucketPairs:    want.Stats.BucketPairs,
						assocmine.CounterPairsSampled:   want.Stats.PairsSampled,
						assocmine.CounterPairsVerified:  int64(want.Stats.Verified),
						assocmine.CounterFalsePositives: int64(want.Stats.FalsePositives),
						assocmine.CounterVerifyTouches:  want.Stats.VerifyTouches,
					} {
						if got := rec.Counter(counter); got != stat {
							t.Errorf("%s: coordinator recorded %s = %d, single-process Stats %d", label, counter, got, stat)
						}
					}
					if batches := rec.Counter(assocmine.CounterPackedBatches); (batches > 0) != ds.packs || (want.Stats.PackedBatches > 0) != ds.packs {
						t.Errorf("%s: %d candidates verified in %d packed batches by the workers, %d by the single process; want packed = %v on both",
							label, want.Stats.Candidates, batches, want.Stats.PackedBatches, ds.packs)
					}
					if res.Stats.Workers < workers {
						t.Errorf("%s: stats report %d workers, want >= %d", label, res.Stats.Workers, workers)
					}
					if res.Stats.BytesShipped <= 0 {
						t.Errorf("%s: no bytes shipped", label)
					}
				}
			}
		}
	}
}

// TestDistSkipVerify covers the candidates-only path.
func TestDistSkipVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows, _ := fixture(t)
	cfg := assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.35, K: 48, Seed: 7, SkipVerify: true}
	want := reference(t, arows, cfg)
	res, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		SkipVerify: true, Workers: 2,
		WorkerArgv: workerArgv(t), Env: []string{beWorkerEnv + "=1"}, JobTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	comparePairs(t, "skip-verify", res.Pairs, want.Pairs)
}

// TestDistCrashRestart kills a worker mid-shard — it exits without
// replying to a job — and requires the bounded restart path to
// reproduce the single-process output exactly: on its first job (the
// fold phase), and — a lone worker dying on the job after its three
// fold jobs, deterministically — on the candidate job, where the
// replacement must be re-sent the merged state and rebuild the phase-2
// kernel over it before it can answer the range.
func TestDistCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows, _ := fixture(t)
	kmh := assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: 0.35, K: 32, Seed: 7}
	sampled := assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.35, K: 12, R: 3, L: 8, Seed: 7}
	for _, tc := range []struct {
		label              string
		cfg                assocmine.Config
		workers, rowJobs   int
		crashWorker, after string
	}{
		{"fold-phase/KMH", kmh, 2, 2, "1", "0"},
		{"cand-phase/KMH", kmh, 1, 3, "0", "3"},
		{"cand-phase/MLSH-sampled", sampled, 1, 3, "0", "3"},
	} {
		want := reference(t, arows, tc.cfg)
		res, err := dist.Run(dist.Config{
			Path: arows, Algorithm: dist.Algo(tc.cfg.Algorithm), Threshold: tc.cfg.Threshold,
			K: tc.cfg.K, R: tc.cfg.R, L: tc.cfg.L, Seed: tc.cfg.Seed,
			Workers: tc.workers, RowJobs: tc.rowJobs, MaxRestarts: 2, JobTimeout: time.Minute,
			WorkerArgv: workerArgv(t),
			Env: []string{
				beWorkerEnv + "=1",
				dist.EnvCrashWorker + "=" + tc.crashWorker,
				dist.EnvCrashAfter + "=" + tc.after,
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		comparePairs(t, "crash-restart/"+tc.label, res.Pairs, want.Pairs)
		if res.Stats.Restarts != 1 || res.Stats.Workers != tc.workers+1 {
			t.Errorf("%s: %d restarts, %d launches; want 1 and %d", tc.label, res.Stats.Restarts, res.Stats.Workers, tc.workers+1)
		}
	}
}

// TestDistBPSRowJobsCrash: BPS with more row ranges than workers and one
// worker dying mid-run stays bit-identical to the single-process
// streamed run — whether it dies on its first job, inside the fold
// phase, or (a lone worker on its sixth job, deterministically) in the
// sample phase, where the replacement must first be replayed the merged
// supports.
func TestDistBPSRowJobsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows, _ := fixture(t)
	cfg := assocmine.Config{Algorithm: assocmine.BPS, Threshold: 0.35, SampleBudget: 8, Seed: 7}
	want := reference(t, arows, cfg)
	if len(want.Pairs) == 0 {
		t.Fatal("fixture found no pairs; test is vacuous")
	}
	for _, tc := range []struct {
		label              string
		workers, rowJobs   int
		crashWorker, after string
	}{
		{"fold-phase", 2, 5, "1", "0"},
		{"sample-phase", 1, 4, "0", "5"},
	} {
		res, err := dist.Run(dist.Config{
			Path: arows, Algorithm: dist.BPS, Threshold: 0.35, SampleBudget: 8, Seed: 7,
			Workers: tc.workers, RowJobs: tc.rowJobs, MaxRestarts: 2, JobTimeout: time.Minute,
			WorkerArgv: workerArgv(t),
			Env: []string{
				beWorkerEnv + "=1",
				dist.EnvCrashWorker + "=" + tc.crashWorker,
				dist.EnvCrashAfter + "=" + tc.after,
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		comparePairs(t, "bps-crash/"+tc.label, res.Pairs, want.Pairs)
		if res.Stats.Restarts != 1 || res.Stats.Workers != tc.workers+1 {
			t.Errorf("%s: %d restarts, %d launches; want 1 and %d", tc.label, res.Stats.Restarts, res.Stats.Workers, tc.workers+1)
		}
		if res.Stats.Jobs < 2*tc.rowJobs+1 {
			t.Errorf("%s: %d jobs; want %d fold + %d sample + verify", tc.label, res.Stats.Jobs, tc.rowJobs, tc.rowJobs)
		}
	}
}

// TestDistHangRestart wedges a worker on its first job; the job
// timeout must detect it, kill it, and finish the run correctly.
func TestDistHangRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out a timeout")
	}
	arows, _ := fixture(t)
	cfg := assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.35, K: 48, Seed: 7}
	want := reference(t, arows, cfg)
	res, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 2, MaxRestarts: 2, JobTimeout: 2 * time.Second,
		WorkerArgv: workerArgv(t),
		Env:        []string{beWorkerEnv + "=1", dist.EnvHangWorker + "=0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	comparePairs(t, "hang-restart", res.Pairs, want.Pairs)
	if res.Stats.Restarts < 1 {
		t.Errorf("hang did not consume a restart: %+v", res.Stats)
	}
}

// TestDistCancellation tears the process tree down mid-run.
func TestDistCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 1, JobTimeout: time.Hour, Context: ctx,
		WorkerArgv: workerArgv(t),
		// The lone worker hangs forever; only cancellation can end this.
		Env: []string{beWorkerEnv + "=1", dist.EnvHangWorker + "=0"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; teardown is not prompt", elapsed)
	}
}

// TestDistRestartBudget aborts when every launch dies before the
// handshake completes.
func TestDistRestartBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows, _ := fixture(t)
	_, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 1, MaxRestarts: 1, JobTimeout: 10 * time.Second,
		WorkerArgv: []string{"/bin/false"},
	})
	if err == nil {
		t.Fatal("run with unlaunchable workers succeeded")
	}
}

// TestDistConfigValidation covers the coordinator's parameter checks.
func TestDistConfigValidation(t *testing.T) {
	argv := []string{"/bin/true"}
	cases := []dist.Config{
		{},                                  // no path
		{Path: "x.arows"},                   // no argv
		{Path: "x.arows", WorkerArgv: argv}, // no algorithm
		{Path: "x.arows", WorkerArgv: argv, Algorithm: dist.MinHash},                            // no threshold
		{Path: "x.arows", WorkerArgv: argv, Algorithm: dist.MinHash, Threshold: 1.5},            // bad threshold
		{Path: "x.arows", WorkerArgv: argv, Algorithm: dist.MinLSH, Threshold: 0.5, K: 3, R: 5}, // K < R
	}
	for i, cfg := range cases {
		if _, err := dist.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
