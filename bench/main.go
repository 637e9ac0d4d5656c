// Command bench is the repository's benchmark: four long workloads, each
// one process, timed by medians of repeated rounds and probed layer by
// layer from the outside. See README.md in this directory.
//
//	go run . -workload stream-sig -seed 1 -seconds 15 -trace 1
//	go run .                      # every workload, one child process each
//	go run . -aa 10               # two interleaved sets of ten runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"assocmine/internal/dist"
)

// workloads lists the suite in running order, with why each exists
// (BENCHMARK.json repeats the reasons).
var workloads = []struct {
	name, why string
	make      func(sizing) workload
}{
	{"stream-sig", "out-of-core MH/K-MH over .arows/.carows plus a 2-worker dist run: decode and fold dominate (phase 1)",
		func(s sizing) workload { return newStreamSig(s) }},
	{"cand-wide", "in-memory row-sort, hash-count, banding and BPS over 40k columns of precomputed signatures: candidate generation dominates (phase 2); fold and decode do nothing",
		func(s sizing) workload { return newCandWide(s) }},
	{"verify-cluster", "near-duplicate clusters through the packed popcount kernel and a budgeted spill run: verification dominates (phase 3)",
		func(s sizing) workload { return newVerifyCluster(s) }},
	{"serve-refresh", "two closed-loop HTTP clients on the resident service with a 25 % repeat mix and a mid-round refresh: plan, cache, incremental fold",
		func(s sizing) workload { return newServeRefresh(s) }},
}

func main() {
	// A dist worker is this binary re-executed with -worker first.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var scale string
	var trace, aa int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the input generators (the system's own Config.Seed stays 1)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "keep running timed rounds until they total this long")
	flag.IntVar(&trace, "trace", 0, "1: add the traced round and report the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for the smoke test")
	flag.StringVar(&o.traceDir, "trace-dir", defaultTraceDir(), "where trace-<workload>.json is written")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run the suite as two interleaved sets of this many runs and compare them")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package define it, and exit")
	flag.Parse()
	if *printManifest {
		os.Stdout.Write(manifest())
		return
	}
	o.trace = trace != 0
	o.sizing = fullSizing
	if scale == "tiny" {
		o.sizing = tinySizing
	} else if scale != "full" {
		fatal(fmt.Errorf("unknown -scale %q (want full or tiny)", scale))
	}
	switch {
	case aa > 0:
		if !runAA(aa, o, os.Stdout) {
			os.Exit(1)
		}
	case o.workload == "":
		ok := true
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0], append(os.Args[1:], "-workload", w.name)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, err := newWorkload(o.workload, o.sizing)
		if err != nil {
			fatal(err)
		}
		out, err := runWorkload(w, o, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", o.workload, err))
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line)) // the driver reads correct/failed from this line; the exit code says only that a result exists
	}
}

// runSeconds is BENCHMARK.json's run_seconds: the timed rounds go on
// until they total this long, and never stop before the seventh. Seven
// rounds of 2.3–2.9 s pass it, so a run times exactly seven unless the
// box is fast; with generation, set-up, the warm-up and the calibration
// kernel a run takes 25–28 s (3 s more with the traced round), so the
// driver's 92 runs and two builds fit its 57 minutes with a fifth to
// spare for the box's slow stretches.
const runSeconds = 15

// manifest renders BENCHMARK.json from the workload and metric tables,
// so the file the driver reads cannot drift from what the program emits.
func manifest() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

func newWorkload(name string, sz sizing) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(sz), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// defaultTraceDir is bench/out whether the benchmark is started from the
// repository root or from its own directory.
func defaultTraceDir() string {
	if wd, err := os.Getwd(); err == nil && filepath.Base(wd) == "bench" {
		return "out"
	}
	return filepath.Join("bench", "out")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
