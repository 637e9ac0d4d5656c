package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"assocmine"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// durRE matches Go duration strings in the stats line; secRE the
// float seconds of the Prometheus phase timers. Both are run-dependent
// and normalised away before diffing.
var (
	durRE = regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?(ns|µs|ms|m?s)\b`)
	secRE = regexp.MustCompile(`(assocmine_phase_seconds\{[^}]*\} )[0-9.eE+-]+`)
)

func normalize(out string) string {
	out = durRE.ReplaceAllString(out, "<dur>")
	out = secRE.ReplaceAllString(out, "${1}<sec>")
	return out
}

// captureRun executes run(o) with stdout captured.
func captureRun(t *testing.T, o options) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := run(o)
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return out
}

// pairsSection returns the output up to the stats line — the mined
// pairs themselves, which must be bit-identical for any worker count.
func pairsSection(out string) string {
	if i := strings.Index(out, "phases:"); i >= 0 {
		return out[:i]
	}
	return out
}

// TestGoldenOutput locks the CLI's stdout for a committed dataset:
// per-algorithm goldens with stats and metrics, durations normalised.
// The mined pairs are bit-identical for any worker count; the stats
// and metrics sections legitimately differ (worker gauges, data-pass
// accounting), so each worker count gets its own golden. Regenerate
// with:
//
//	go test ./cmd/assocfind -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	data := filepath.Join("testdata", "golden.txt")
	cases := []struct {
		name string
		o    options
	}{
		{"mh", options{in: data, algo: "mh", threshold: 0.5, k: 80, seed: 3, top: 10, stats: true, metrics: true}},
		{"mlsh", options{in: data, algo: "mlsh", threshold: 0.5, k: 80, r: 5, l: 16, seed: 3, top: 10, stats: true, metrics: true}},
		{"brute", options{in: data, algo: "brute", threshold: 0.5, top: 10, stats: true}},
		{"stream-kmh", options{in: data, algo: "kmh", threshold: 0.5, k: 80, seed: 3, top: 10, stats: true, stream: true}},
		// Sliding-window run: only the trailing 120 rows are mined, so
		// the golden locks in the reduced rows-scanned accounting too.
		{"window-mh", options{in: data, algo: "mh", threshold: 0.5, k: 80, seed: 3, top: 10, stats: true, metrics: true, window: 120}},
		{"stream-mh", options{in: data, algo: "mh", threshold: 0.5, k: 80, seed: 3, top: 10, stats: true, metrics: true, stream: true}},
		// threshold 0.1 admits ~44 candidates, whose counter table
		// overflows the 128-byte budget — the golden locks in nonzero
		// spill activity in both the stats line and the metrics.
		{"stream-budget", options{in: data, algo: "mh", threshold: 0.1, k: 80, seed: 3, top: 5, stats: true, metrics: true, stream: true, memBudget: "128"}},
		// Biased pair sampling: the golden locks in the deterministic
		// "sampled:" stats line (draws / accepts / duplicates are pure
		// functions of seed and data, identical for any worker count).
		{"bps", options{in: data, algo: "bps", threshold: 0.5, seed: 3, top: 10, stats: true, metrics: true}},
		{"stream-bps", options{in: data, algo: "bps", threshold: 0.5, seed: 3, top: 10, stats: true, metrics: true, stream: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var serialPairs string
			for _, workers := range []int{1, 4} {
				o := tc.o
				o.workers = workers
				out := normalize(captureRun(t, o))
				if workers == 1 {
					serialPairs = pairsSection(out)
				} else if p := pairsSection(out); p != serialPairs {
					t.Fatalf("workers=4 mined different pairs than workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serialPairs, p)
				}
				golden := filepath.Join("testdata", fmt.Sprintf("golden_%s_w%d.golden", tc.name, workers))
				if *update {
					if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("reading golden (run with -update to create): %v", err)
				}
				if out != string(want) {
					t.Errorf("workers=%d output differs from %s:\n%s", workers, golden, diffLines(string(want), out))
				}
			}
		})
	}
}

// TestGoldenRules locks the stdout of -rules, loaded and streamed from
// an .arows copy of the same dataset: the rules, their order and the
// stats lines a rules run reports. Regenerate with -update.
func TestGoldenRules(t *testing.T) {
	tmp := t.TempDir()
	arows := filepath.Join(tmp, "golden.arows")
	d, err := assocmine.LoadDataset(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveRowBinary(arows); err != nil {
		t.Fatal(err)
	}
	base := options{doRules: true, conf: 0.7, k: 80, seed: 3, top: 10, stats: true}
	for _, tc := range []struct {
		name   string
		in     string
		stream bool
	}{
		{"rules", filepath.Join("testdata", "golden.txt"), false},
		{"stream-rules", arows, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			o.in, o.stream = tc.in, tc.stream
			out := strings.ReplaceAll(normalize(captureRun(t, o)), tmp, "<tmp>")
			golden := filepath.Join("testdata", "golden_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s:\n%s", golden, diffLines(string(want), out))
			}
		})
	}
}

func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&sb, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
	}
	return sb.String()
}
