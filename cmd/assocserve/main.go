// Command assocserve is the resident similarity service: it folds a
// dataset's min-hash signatures and bottom-k sketches once at startup
// (resuming from -snapshot-mh/-snapshot-kmh when given), keeps them
// warm, and answers concurrent HTTP/JSON queries — threshold pair
// scans, top-k neighbors, association rules, and boolean-composition
// questions — until told to drain.
//
//	assocserve -in data.txt -addr :8080
//
// Endpoints (all POST except /healthz; see README "Serving"):
//
//	/healthz      liveness + index shape
//	/v1/pairs     {"threshold": 0.7}
//	/v1/topk      {"col": 3, "k": 10}
//	/v1/toppairs  {"n": 25}
//	/v1/rules     {"min_confidence": 0.9}
//	/v1/expr      {"op": "similarity", "a": "3|4", "b": "5"}
//	/v1/refresh   {}  — fold rows appended to -in since startup
//	/metrics      Prometheus text; /debug/vars expvar JSON
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"assocmine/internal/serve"
)

func main() {
	var (
		in          = flag.String("in", "", "input dataset file (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		sigK        = flag.Int("k", 200, "min-hash signature size computed at startup")
		sketchK     = flag.Int("sketch-k", 256, "bottom-k sketch size computed at startup")
		seed        = flag.Uint64("seed", 1, "random seed for all hashing")
		workers     = flag.Int("workers", 1, "per-query worker budget; 0 or 1 = serial, -1 = all cores")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-query time budget when the request sets none; 0 = none")
		maxTimeout  = flag.Duration("max-timeout", time.Minute, "cap on any request's time budget")
		memBudget   = flag.String("mem-budget", "", "per-query verification memory budget, e.g. 64K, 16M, 1G; empty or 0 = unlimited")
		spillDir    = flag.String("spill-dir", "", "directory for budgeted-verification spill runs; empty = OS temp")
		maxTopK     = flag.Int("max-topk", 100, "cap on k/n in top-k queries")
		snapMH      = flag.String("snapshot-mh", "", "AIN1 ingest snapshot for the signature index: resumed at startup, saved after every catch-up")
		snapKMH     = flag.String("snapshot-kmh", "", "AIN1 ingest snapshot for the sketch index")
		cacheSize   = flag.Int("cache", 256, "response cache entries for read-only queries; 0 disables")
		refreshInt  = flag.Duration("refresh-interval", 0, "poll -in at this interval and fold appended rows automatically; 0 disables")
		drainwindow = flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "assocserve: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *addr, options{
		sigK: *sigK, sketchK: *sketchK, seed: *seed, workers: *workers,
		timeout: *timeout, maxTimeout: *maxTimeout, memBudget: *memBudget,
		spillDir: *spillDir, maxTopK: *maxTopK,
		snapMH: *snapMH, snapKMH: *snapKMH,
		cacheSize: *cacheSize, refreshInterval: *refreshInt, drain: *drainwindow,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "assocserve:", err)
		os.Exit(1)
	}
}

type options struct {
	sigK, sketchK       int
	seed                uint64
	workers             int
	timeout, maxTimeout time.Duration
	memBudget           string
	spillDir            string
	maxTopK             int
	snapMH, snapKMH     string
	cacheSize           int
	refreshInterval     time.Duration
	drain               time.Duration
}

func run(in, addr string, o options) error {
	budget, err := parseByteSize(o.memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	opts := serve.Options{
		SigK: o.sigK, SketchK: o.sketchK, Seed: o.seed, Workers: o.workers,
		DefaultTimeout: o.timeout, MaxTimeout: o.maxTimeout,
		MemoryBudget: budget, SpillDir: o.spillDir, MaxTopK: o.maxTopK,
		SnapshotMH: o.snapMH, SnapshotKMH: o.snapKMH,
		RefreshInterval: o.refreshInterval,
	}
	// CLI semantics: 0 disables; the library treats 0 as "default".
	if o.cacheSize <= 0 {
		opts.CacheSize = -1
	} else {
		opts.CacheSize = o.cacheSize
	}
	start := time.Now()
	srv, err := serve.NewFromFile(in, opts)
	if err != nil {
		return err
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("assocserve: serving %s on http://%s (index built in %v)\n",
		in, bound, time.Since(start).Round(time.Millisecond))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("assocserve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Printf("assocserve: done after %d queries\n", srv.Queries())
	return nil
}

// parseByteSize parses a human-friendly byte count: a plain integer, or
// an integer with a K/M/G suffix (powers of 1024, optional trailing B,
// case-insensitive). Empty means 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	u := strings.ToUpper(s)
	u = strings.TrimSuffix(u, "B")
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, u[:len(u)-1]
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}
