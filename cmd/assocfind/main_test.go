package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"assocmine"
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
	o := options{in: path, doRules: true, conf: 0.8, k: 80, seed: 1, top: 5}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunRulesHonoursItsFlags: -stream -rules mines from the file (the
// stats carry the two passes' bytes) instead of loading it, -timeout
// reaches the run, and the flags a rules run cannot honour are rejected
// rather than ignored.
func TestRunRulesHonoursItsFlags(t *testing.T) {
	path := writeFixture(t)
	base := options{in: path, doRules: true, conf: 0.8, k: 80, seed: 1, top: 5, stats: true}

	streamed := base
	streamed.stream = true
	out := captureRun(t, streamed)
	if !strings.Contains(out, "streaming "+path) || !strings.Contains(out, "out-of-core: ") {
		t.Errorf("-stream -rules did not mine from the file:\n%s", out)
	}
	// The rules themselves: everything between the first line (loaded/
	// streaming) and the stats.
	rulesOf := func(out string) string { return pairsSection(out[strings.Index(out, "\n")+1:]) }
	if loaded := captureRun(t, base); rulesOf(loaded) != rulesOf(out) {
		t.Errorf("streamed rules differ from loaded ones:\n--- loaded ---\n%s--- streamed ---\n%s", loaded, out)
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
		"workers":      func(o *options) { o.workers = 4 },
		"all-cores":    func(o *options) { o.workers = -1 },
		"mem-budget":   func(o *options) { o.memBudget = "1M" },
		"kernel":       func(o *options) { o.kernel = "packed" },
		"window":       func(o *options) { o.window = 100 },
		"metrics":      func(o *options) { o.metrics = true },
		"metrics-addr": func(o *options) { o.metricsAddr = "127.0.0.1:0" },
		"progress":     func(o *options) { o.progress = true },
		"clusters":     func(o *options) { o.clusters = true },
	} {
		o := base
		set(&o)
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-rules cannot be combined with") {
			t.Errorf("-rules with -%s: err = %v, want a rejection", name, err)
		}
	}
	serial := base
	serial.workers, serial.kernel = 1, "auto"
	if err := run(serial); err != nil {
		t.Errorf("-rules -workers 1 -kernel auto: %v", err)
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
