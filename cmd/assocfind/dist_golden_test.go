package main

import (
	"os"
	"path/filepath"
	"testing"

	"assocmine"
	"assocmine/internal/dist"
)

// TestMain lets this test binary stand in for the assocfind worker:
// runDist re-execs os.Executable() with -worker, which in tests is the
// test binary itself, so the worker protocol is entered here before
// any test machinery (or flag parsing) runs.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-worker" {
			if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// distFixture saves the synthetic golden dataset in both binary row
// formats.
func distFixture(t *testing.T) (arows, carows string) {
	t.Helper()
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
		Rows: 800, Cols: 60, PairsPerRange: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	arows = filepath.Join(dir, "data.arows")
	carows = filepath.Join(dir, "data.carows")
	if err := d.SaveRowBinary(arows); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveRowCompressed(carows); err != nil {
		t.Fatal(err)
	}
	return arows, carows
}

// TestDistDifferential is the end-to-end distributed-equals-serial
// harness: for every supported scheme, worker count, and binary format,
// `-dist-workers N` must print byte-for-byte what the single-process
// `-stream` run prints.
func TestDistDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess fleets")
	}
	arows, carows := distFixture(t)
	algos := []struct {
		algo    string
		k, r, l int
	}{
		{algo: "mh", k: 80},
		{algo: "kmh", k: 80},
		{algo: "mlsh", k: 80, r: 5, l: 16},
		{algo: "bps"},
	}
	for _, path := range []string{arows, carows} {
		for _, ac := range algos {
			base := options{
				in: path, algo: ac.algo, threshold: 0.5,
				k: ac.k, r: ac.r, l: ac.l, seed: 3,
				stream: true, stats: false, top: 0,
			}
			if base.k == 0 {
				base.k = 100 // options zero value; flag default is 100
			}
			want := captureRun(t, base)
			for _, workers := range []int{1, 4} {
				o := base
				o.distWorkers = workers
				got := captureRun(t, o)
				if got != want {
					t.Errorf("%s %s workers=%d: distributed output differs from single-process\n--- dist ---\n%s--- serial ---\n%s",
						ac.algo, filepath.Ext(path), workers, got, want)
				}
			}
		}
	}
}

// TestDistFlagConflicts locks the CLI guard rails around -dist-workers.
func TestDistFlagConflicts(t *testing.T) {
	arows, _ := distFixture(t)
	bad := []options{
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2},                                 // no -stream
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, window: 10},       // window
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, doRules: true},    // rules
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, memBudget: "1M"},  // budget
		{in: arows, algo: "hlsh", threshold: 0.5, k: 100, distWorkers: 2, stream: true},                 // unsupported algo
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, clusters: true},   // clusters
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, appendState: "x"}, // append
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, kernel: "packed"}, // kernel: the workers
		{in: arows, algo: "mh", threshold: 0.5, k: 100, distWorkers: 2, stream: true, kernel: "scalar"}, // verify with auto
	}
	for i, o := range bad {
		if err := run(o); err == nil {
			t.Errorf("case %d: conflicting flags accepted", i)
		}
	}
}
