package dist_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	assocmine "assocmine"
	"assocmine/internal/dist"
)

// beWorkerEnv routes a re-exec'd test binary into WorkerMain; the other
// three are the worker's fault hooks (worker.go), spelled out here so the
// test pins their strings.
const (
	beWorkerEnv    = "ASSOCDIST_BE_WORKER"
	envCrashWorker = "ASSOCDIST_CRASH_WORKER"
	envCrashAfter  = "ASSOCDIST_CRASH_AFTER"
	envHangWorker  = "ASSOCDIST_HANG_WORKER"
)

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

// fixture saves a seeded synthetic matrix as ".arows": 220 rows, 44
// columns, one planted pair per similarity range, all of them above the
// 0.35 threshold the tests mine at. (The root package's equivalence
// matrix holds dist to the single-process driver, pair for pair.)
func fixture(t *testing.T) string {
	t.Helper()
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{Rows: 220, Cols: 44, PairsPerRange: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	arows := filepath.Join(t.TempDir(), "fixture.arows")
	if err := d.Save(arows); err != nil {
		t.Fatal(err)
	}
	return arows
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

// TestDistSkipVerify covers the candidates-only path.
func TestDistSkipVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows := fixture(t)
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
	arows := fixture(t)
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
				envCrashWorker + "=" + tc.crashWorker,
				envCrashAfter + "=" + tc.after,
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
	arows := fixture(t)
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
			Path: arows, Algorithm: dist.Algo(assocmine.BPS), Threshold: 0.35, SampleBudget: 8, Seed: 7,
			Workers: tc.workers, RowJobs: tc.rowJobs, MaxRestarts: 2, JobTimeout: time.Minute,
			WorkerArgv: workerArgv(t),
			Env: []string{
				beWorkerEnv + "=1",
				envCrashWorker + "=" + tc.crashWorker,
				envCrashAfter + "=" + tc.after,
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
	arows := fixture(t)
	cfg := assocmine.Config{Algorithm: assocmine.MinHash, Threshold: 0.35, K: 48, Seed: 7}
	want := reference(t, arows, cfg)
	res, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 2, MaxRestarts: 2, JobTimeout: 2 * time.Second,
		WorkerArgv: workerArgv(t),
		Env:        []string{beWorkerEnv + "=1", envHangWorker + "=0"},
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
	arows := fixture(t)
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
		Env: []string{beWorkerEnv + "=1", envHangWorker + "=0"},
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
	arows := fixture(t)
	_, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 1, MaxRestarts: 1, JobTimeout: 10 * time.Second,
		WorkerArgv: []string{"/bin/false"},
	})
	if err == nil {
		t.Fatal("run with unlaunchable workers succeeded")
	}
}

// TestDistConfigValidation covers the checks of a dist Config: the
// coordinator's own, and the driver's of the parameter set.
func TestDistConfigValidation(t *testing.T) {
	argv := []string{"/bin/true"}
	arows := fixture(t) // the parameters are checked after the file opens
	cases := []dist.Config{
		{},                                  // no path
		{Path: "x.arows"},                   // no argv
		{Path: "x.arows", WorkerArgv: argv}, // no algorithm
		{Path: arows, WorkerArgv: argv, Algorithm: dist.MinHash},                                            // no threshold
		{Path: arows, WorkerArgv: argv, Algorithm: dist.MinHash, Threshold: 1.5},                            // bad threshold
		{Path: arows, WorkerArgv: argv, Algorithm: dist.Algo(assocmine.MinLSH), Threshold: 0.5, K: 3, R: 5}, // K < R
	}
	for i, cfg := range cases {
		if _, err := dist.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
