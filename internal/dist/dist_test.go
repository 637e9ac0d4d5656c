package dist_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	assocmine "assocmine"
	"assocmine/internal/dist"
)

// TestMain doubles as the worker executable: the coordinator re-execs
// the test binary with "-worker" (workerArgv) or with "-faulty-worker
// token after crash|hang" (faultyArgv), and this hook routes the child
// into WorkerMain or FaultyWorkerMain before any test machinery runs.
func TestMain(m *testing.M) {
	var err error
	switch a := append(os.Args[1:], ""); a[0] {
	case "-worker":
		err = dist.WorkerMain(os.Stdin, os.Stdout)
	case "-faulty-worker":
		after, _ := strconv.Atoi(a[2])
		err = dist.FaultyWorkerMain(os.Stdin, os.Stdout, a[1], after, a[3] == "hang")
	default:
		// The workers inherit the environment: a worker built with -race
		// otherwise sleeps a second on exit (the race runtime's
		// atexit_sleep_ms), which the coordinator waits out.
		os.Setenv("GORACE", os.Getenv("GORACE")+" atexit_sleep_ms=0")
		os.Exit(m.Run())
	}
	if err != nil {
		os.Exit(1)
	}
	os.Exit(0)
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
	return []string{exe, "-worker"}
}

// faultyArgv returns the command line of a worker pool in which the
// first worker to receive its (after+1)-th job crashes (or hangs, with
// fault "hang"); the pool's other workers and every replacement serve.
func faultyArgv(t *testing.T, after int, fault string) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	token := filepath.Join(t.TempDir(), "fault.token")
	return []string{exe, "-faulty-worker", token, strconv.Itoa(after), fault}
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

// TestDistCrashRestart kills a worker mid-shard — it exits without
// replying to a job — and requires the bounded restart path to
// reproduce the single-process output exactly: on its first job (the
// fold phase), and — a lone worker dying on the job after its fold job,
// deterministically — on the candidate job, where the replacement must
// be re-sent the merged state and rebuild the phase-2 kernel over it
// before it can answer the range.
func TestDistCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows := fixture(t)
	kmh := assocmine.Config{Algorithm: assocmine.KMinHash, Threshold: 0.35, K: 32, Seed: 7}
	sampled := assocmine.Config{Algorithm: assocmine.MinLSH, Threshold: 0.35, K: 12, R: 3, L: 8, Seed: 7}
	for _, tc := range []struct {
		label          string
		cfg            assocmine.Config
		workers, after int
	}{
		{"fold-phase/KMH", kmh, 2, 0},
		{"cand-phase/KMH", kmh, 1, 1},
		{"cand-phase/MLSH-sampled", sampled, 1, 1},
	} {
		want := reference(t, arows, tc.cfg)
		res, err := dist.Run(dist.Config{
			Path: arows, Algorithm: dist.Algo(tc.cfg.Algorithm), Threshold: tc.cfg.Threshold,
			K: tc.cfg.K, R: tc.cfg.R, L: tc.cfg.L, Seed: tc.cfg.Seed,
			Workers: tc.workers, WorkerArgv: faultyArgv(t, tc.after, "crash"),
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

// TestDistBPSRowJobsCrash: BPS over row-range jobs with one worker
// dying mid-run stays bit-identical to the single-process streamed run —
// whether it dies on its first job, inside the fold phase, or (a lone
// worker on its second job, deterministically) in the sample phase,
// where the replacement must first be replayed the merged supports.
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
		label          string
		workers, after int
	}{
		{"fold-phase", 2, 0},
		{"sample-phase", 1, 1},
	} {
		res, err := dist.Run(dist.Config{
			Path: arows, Algorithm: dist.Algo(assocmine.BPS), Threshold: 0.35, SampleBudget: 8, Seed: 7,
			Workers: tc.workers, WorkerArgv: faultyArgv(t, tc.after, "crash"),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		comparePairs(t, "bps-crash/"+tc.label, res.Pairs, want.Pairs)
		if res.Stats.Restarts != 1 || res.Stats.Workers != tc.workers+1 {
			t.Errorf("%s: %d restarts, %d launches; want 1 and %d", tc.label, res.Stats.Restarts, res.Stats.Workers, tc.workers+1)
		}
		if res.Stats.Jobs < 2*tc.workers+1 {
			t.Errorf("%s: %d jobs; want %d fold + %d sample + verify", tc.label, res.Stats.Jobs, tc.workers, tc.workers)
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
	dist.SetJobTimeout(t, 2*time.Second)
	res, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 2, WorkerArgv: faultyArgv(t, 0, "hang"),
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
		Workers: 1, Context: ctx,
		// The lone worker hangs on its first job, and the job timeout is
		// minutes away: only cancellation can end this.
		WorkerArgv: faultyArgv(t, 0, "hang"),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; teardown is not prompt", elapsed)
	}
}

// TestDistRestartBudget aborts when every launch dies before the
// handshake completes, and when every launch crashes on its first job:
// the third replacement's crash exhausts the budget.
func TestDistRestartBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	arows := fixture(t)
	_, err := dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 1, WorkerArgv: []string{"/bin/false"},
	})
	if err == nil {
		t.Fatal("run with unlaunchable workers succeeded")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	_, err = dist.Run(dist.Config{
		Path: arows, Algorithm: dist.MinHash, Threshold: 0.35, K: 48, Seed: 7,
		Workers: 1, WorkerArgv: []string{exe, "-faulty-worker", "", "0", "crash"},
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget 3 exhausted") {
		t.Fatalf("run whose every worker crashes: err = %v, want the restart budget exhausted", err)
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
