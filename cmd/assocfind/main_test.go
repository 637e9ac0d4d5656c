package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"assocmine"
	"assocmine/internal/serve"
)

func TestParseAlgo(t *testing.T) {
	cases := map[string]assocmine.Algorithm{
		"brute": assocmine.BruteForce, "bruteforce": assocmine.BruteForce,
		"mh": assocmine.MinHash, "MinHash": assocmine.MinHash,
		"kmh": assocmine.KMinHash, "K-MH": assocmine.KMinHash,
		"mlsh": assocmine.MinLSH, "M-LSH": assocmine.MinLSH,
		"hlsh": assocmine.HammingLSH, "HammingLSH": assocmine.HammingLSH,
		"apriori": assocmine.Apriori, "A-priori": assocmine.Apriori,
		"bps": assocmine.BPS, "BPS": assocmine.BPS,
		"rules": assocmine.Rules,
	}
	for in, want := range cases {
		got, err := parseAlgo(in)
		if err != nil || got != want {
			t.Errorf("parseAlgo(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseAlgo("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func writeFixture(t *testing.T) string {
	t.Helper()
	d, _, err := assocmine.GenerateSynthetic(assocmine.SyntheticOptions{
		Rows: 800, Cols: 60, PairsPerRange: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRetiredAMX1 holds every entry point that reads a dataset file —
// LoadDataset, OpenFileDataset, assocfind with and without -stream, and
// the resident service — to the one error that names AMX1 retired and
// says to re-save as .arows.
func TestRetiredAMX1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.amx")
	if err := os.WriteFile(path, []byte("AMX1\x02\x02\x01\x00\x01\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{in: path, algo: "mh", threshold: 0.5, k: 20, seed: 1}
	streamed := o
	streamed.stream = true
	for name, open := range map[string]func() error{
		"LoadDataset":       func() error { _, err := assocmine.LoadDataset(path); return err },
		"OpenFileDataset":   func() error { _, err := assocmine.OpenFileDataset(path); return err },
		"assocfind":         func() error { return run(o) },
		"assocfind -stream": func() error { return run(streamed) },
		"serve":             func() error { _, err := serve.NewFromFile(path, serve.Options{}); return err },
	} {
		err := open()
		var fe *assocmine.FileError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), "AMX1 (.amx) is a retired") || !strings.Contains(err.Error(), "re-save the data as .arows") {
			t.Errorf("%s: %v, want the *FileError naming AMX1 retired", name, err)
		}
	}
}

func TestRunSimilarPairs(t *testing.T) {
	path := writeFixture(t)
	o := options{
		in: path, algo: "mlsh", threshold: 0.45, k: 60, seed: 1, top: 5,
		stats: true,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunStreaming(t *testing.T) {
	path := writeFixture(t)
	o := options{
		in: path, algo: "kmh", threshold: 0.45, k: 60, seed: 1, top: 5,
		stream: true, clusters: true,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRules(t *testing.T) {
	path := writeFixture(t)
	o := options{in: path, algo: "rules", threshold: 0.8, k: 80, seed: 1, top: 5}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunRulesHonoursItsFlags: -stream -algo rules mines from the file
// (the stats carry the two passes' bytes) instead of loading it,
// -timeout reaches the run, and a rules run takes the flags every other
// driver run takes: under -workers, a spilling -mem-budget, -progress,
// -metrics and -clusters it mines the serial loaded run's rules,
// -window mines the trailing rows, and -dist-workers is refused by
// dist.Run itself.
func TestRunRulesHonoursItsFlags(t *testing.T) {
	path := writeFixture(t)
	// At 0.3 the candidates overflow the smallest spill table (16).
	base := options{in: path, algo: "rules", threshold: 0.3, k: 80, seed: 1, stats: true}

	streamed := base
	streamed.stream = true
	out := captureRun(t, streamed)
	if !strings.Contains(out, "streaming "+path) || !strings.Contains(out, "out-of-core: ") {
		t.Errorf("-stream -algo rules did not mine from the file:\n%s", out)
	}
	// The rules themselves: everything between the first line (loaded/
	// streaming) and the clusters or the stats.
	rulesOf := func(out string) string {
		out = pairsSection(out[strings.Index(out, "\n")+1:])
		if i := strings.Index(out, " clusters (pairwise"); i >= 0 {
			out = out[:strings.LastIndex(out[:i], "\n")+1]
		}
		return out
	}
	want := rulesOf(captureRun(t, base))
	if got := rulesOf(out); got != want {
		t.Errorf("streamed rules differ from loaded ones:\n--- loaded ---\n%s--- streamed ---\n%s", want, got)
	}

	for _, stream := range []bool{false, true} {
		o := base
		o.stream, o.timeout = stream, time.Nanosecond
		if err := run(o); err == nil || !strings.Contains(err.Error(), "timed out after 1ns") {
			t.Errorf("stream=%v: nanosecond timeout: err = %v, want the timeout error", stream, err)
		}
	}
	generous := base
	generous.timeout = time.Minute
	if err := run(generous); err != nil {
		t.Errorf("run with generous timeout: %v", err)
	}

	for name, set := range map[string]func(*options){
		"workers":    func(o *options) { o.workers = 4 },
		"all-cores":  func(o *options) { o.workers = -1 },
		"mem-budget": func(o *options) { o.memBudget = "64" },
		"metrics":    func(o *options) { o.metrics = true },
		"progress":   func(o *options) { o.progress = true },
		"clusters":   func(o *options) { o.clusters = true },
	} {
		o := base
		set(&o)
		out := captureRun(t, o)
		if got := rulesOf(out); got != want {
			t.Errorf("-%s mined other rules:\n--- serial ---\n%s--- -%s ---\n%s", name, want, name, got)
		}
		if name == "mem-budget" && (!strings.Contains(out, "out-of-core: ") || strings.Contains(out, " 0 spill runs")) {
			t.Errorf("-mem-budget 64 did not spill:\n%s", out)
		}
		if name == "metrics" && !strings.Contains(out, "assocmine_pairs_verified") {
			t.Errorf("-metrics printed no pipeline counters:\n%s", out)
		}
		if name == "clusters" && !strings.Contains(out, " clusters (pairwise density >= 0.5):") {
			t.Errorf("-clusters printed no clusters:\n%s", out)
		}
	}
	windowed := base
	windowed.window = 100
	if out := captureRun(t, windowed); !strings.Contains(out, "high-confidence rules") {
		t.Errorf("-window 100 printed no rules:\n%s", out)
	}
	pooled := streamed
	pooled.distWorkers = 2
	if err := run(pooled); err == nil || !strings.Contains(err.Error(), "dist: Rules runs single-process only") {
		t.Errorf("-algo rules -dist-workers 2: err = %v, want dist.Run's rejection", err)
	}
}

// TestStreamClustersMatchLoaded: -stream -clusters groups the pairs mined
// from the .arows copy into the clusters the loaded run prints.
func TestStreamClustersMatchLoaded(t *testing.T) {
	path := writeFixture(t)
	d, err := assocmine.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	arows := filepath.Join(t.TempDir(), "data.arows")
	if err := d.Save(arows); err != nil {
		t.Fatal(err)
	}
	clustersOf := func(out string) string {
		i := strings.Index(out, " clusters (pairwise density >= 0.5):")
		if i < 0 {
			t.Fatalf("no clusters printed:\n%s", out)
		}
		return out[strings.LastIndex(out[:i], "\n")+1:]
	}
	o := options{in: path, algo: "mh", threshold: 0.45, k: 60, seed: 1, clusters: true}
	want := clustersOf(captureRun(t, o))
	o.in, o.stream = arows, true
	if got := clustersOf(captureRun(t, o)); got != want {
		t.Errorf("streamed clusters differ from loaded ones:\n--- loaded ---\n%s--- streamed ---\n%s", want, got)
	}
	if strings.Count(want, "{") == 0 {
		t.Errorf("the loaded run found no clusters: the comparison is vacuous:\n%s", want)
	}
}

func TestRunTransactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baskets.txt")
	content := "milk bread\nmilk bread\nbeer\nbeer chips\nmilk bread beer\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{in: path, txns: true, algo: "brute", threshold: 0.5, top: 10}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeout(t *testing.T) {
	path := writeFixture(t)
	// A nanosecond deadline expires before the first row is scanned;
	// the run must abort with the timeout error, not hang or succeed.
	o := options{
		in: path, algo: "mh", threshold: 0.45, k: 60, seed: 1, top: 5,
		stream: true, timeout: time.Nanosecond,
	}
	err := run(o)
	if err == nil {
		t.Fatal("nanosecond timeout did not abort the run")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout error", err)
	}
	// A generous deadline must not disturb the run.
	o.timeout = time.Minute
	if err := run(o); err != nil {
		t.Fatalf("run with generous timeout: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(options{in: "/nonexistent/x.txt", algo: "mh", threshold: 0.5}); err == nil {
		t.Error("missing file accepted")
	}
	path := writeFixture(t)
	if err := run(options{in: path, algo: "bogus", threshold: 0.5}); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run(options{in: path, algo: "mh", threshold: -1}); err == nil {
		t.Error("bad threshold accepted")
	}
}
