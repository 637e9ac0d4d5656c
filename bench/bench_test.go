package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"assocmine/internal/dist"
)

// TestMain lets the test binary stand in for a dist worker: stream-sig
// re-executes os.Executable() with -worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// Committed goldens at -scale tiny, -seed 1. A workload cannot drift
// silently: a changed generator changes a digest, a changed recall means
// the system (or the truth count) answers differently.
var (
	goldenDigests = map[string]uint64{
		"stream-sig/market":         0x82dc4149c61a5aa1,
		"cand-wide/wide":            0x112439cb9e6654ae,
		"verify-cluster/clusters":   0xad65c6212ecbe6a4,
		"verify-cluster/sparse":     0x20bf17a9a0819f92,
		"serve-refresh/served-next": 0xd42da3ef6293ddd4,
	}
	goldenRecall = map[string]float64{
		"stream-sig":     1,
		"cand-wide":      0.99528301886792447,
		"verify-cluster": 0.98708844415752095,
		"serve-refresh":  1,
	}
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at -scale tiny with the traced round.
func TestSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for _, def := range workloads {
		var log bytes.Buffer
		out, err := runWorkload(def.make(tinySizing), options{
			workload: def.name, seed: 1, trace: true, sizing: tinySizing, traceDir: t.TempDir(),
		}, &log)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", def.name, out.Correct, out.Attempted, out.Failed, log.String())
		}
		for _, d := range endToEnd {
			if _, ok := out.all.vals[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", def.name, d.Name)
			}
		}
		for name := range out.all.vals {
			emitted[name] = true
		}
		for _, d := range perLayer {
			// Only the mining workloads are replayed layer by layer.
			if d.Name == "bench.unattributed_ratio" && def.name == "serve-refresh" {
				continue
			}
			if _, ok := out.all.vals[d.Name]; strings.HasPrefix(d.Name, "bench.") && !ok {
				t.Errorf("%s: harness metric %s not emitted", def.name, d.Name)
			}
		}
		if got := out.all.vals["ok_ratio"]; got != 1 {
			t.Errorf("%s: ok_ratio = %v, want 1", def.name, got)
		}
		if got, want := out.all.vals["recall"], goldenRecall[def.name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: recall = %.17g, committed %.17g", def.name, got, want)
		}
		if len(out.Metrics) != len(perLayer) {
			t.Errorf("%s: -trace 1 reports %d metrics, want every per-layer metric (%d)", def.name, len(out.Metrics), len(perLayer))
		}
		for name, digest := range out.digests {
			if want, ok := goldenDigests[name]; !ok || digest != want {
				t.Errorf("dataset %s: digest %#x, committed %#x", name, digest, want)
			}
		}
	}
	// Every metric is emitted by at least one workload, under a name the
	// driver accepts, and (metrics.set panics otherwise) at most once.
	for _, d := range concat(endToEnd, perLayer) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if !emitted[d.Name] {
			t.Errorf("metric %s is emitted by no workload", d.Name)
		}
	}
}

// TestManifest keeps BENCHMARK.json equal to the tables in this package.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
}

// TestQuantile pins the quartile rule to Python's
// statistics.quantiles(n=4), which the accepting driver applies.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
