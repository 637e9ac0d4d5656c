// Command assocfind mines a dataset file for highly-similar column
// pairs (or high-confidence rules) using any of the paper's algorithms.
//
// Usage:
//
//	assocfind -in data.arows -algo mlsh -threshold 0.7
//	assocfind -in data.arows -algo mh -threshold 0.6 -workers -1
//	assocfind -in data.arows -algo kmh -threshold 0.5 -k 200 -stream
//	assocfind -in data.arows -algo mh -threshold 0.5 -stream -workers -1 -mem-budget 64M
//	assocfind -in baskets.txt -transactions -algo mh -threshold 0.8 -clusters
//	assocfind -in data.arows -algo rules -threshold 0.9
//	assocfind -in data.arows -algo apriori -threshold 0.5 -support 0.01
//	assocfind -in grow.arows -algo mh -threshold 0.5 -stream -append sketch.ain
//	assocfind -in grow.arows -algo kmh -threshold 0.5 -stream -resume sketch.ain
//	assocfind -in data.arows -algo mh -threshold 0.5 -window 1000
//	assocfind -in data.arows -algo bps -threshold 0.5 -sample-budget 64 -stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"assocmine"
	"assocmine/internal/dist"
)

type options struct {
	in          string
	algo        string
	threshold   float64
	k, r, l     int
	budget      int
	workers     int
	support     float64
	seed        uint64
	top         int
	stats       bool
	stream      bool
	memBudget   string
	timeout     time.Duration
	txns        bool
	clusters    bool
	appendState string
	resumeState string
	window      int
	distWorkers int
	worker      bool
	metrics     bool
	progress    bool
	metricsAddr string
	cpuprofile  string
	memprofile  string
	tracefile   string
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input dataset file (required)")
	flag.StringVar(&o.algo, "algo", "mlsh", "algorithm: brute | mh | kmh | mlsh | hlsh | apriori | bps | rules (§6's high-confidence rules I => J)")
	flag.Float64Var(&o.threshold, "threshold", 0.7, "similarity threshold s* (rules: minimum confidence)")
	flag.IntVar(&o.k, "k", 100, "min-hash values per column (mh, kmh, mlsh, rules)")
	flag.IntVar(&o.r, "r", 0, "band size / sample bits (mlsh, hlsh); 0 = default")
	flag.IntVar(&o.l, "l", 0, "band count / runs (mlsh, hlsh); 0 = default")
	flag.IntVar(&o.budget, "sample-budget", 0, "bps only: expected accepted samples per at-threshold pair; 0 = default (32)")
	flag.IntVar(&o.workers, "workers", 0, "goroutines per phase; 0 or 1 = serial, -1 = all cores")
	flag.Float64Var(&o.support, "support", 0, "apriori only: minimum support fraction")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.top, "top", 50, "print at most this many pairs/rules (0 = all)")
	flag.BoolVar(&o.stats, "stats", true, "print phase statistics")
	flag.BoolVar(&o.stream, "stream", false, "mine directly from disk (one file pass per phase; .txt, .arows or compressed .carows)")
	flag.StringVar(&o.memBudget, "mem-budget", "", "verification memory budget, e.g. 64K, 16M, 1G (bytes if no suffix); empty or 0 = unlimited. The exact pass packs the candidate columns into popcount bitmaps only when they fit it, and when the scalar candidate counters exceed it, spills sorted runs to disk; results are bit-identical either way. apriori, which does not verify, is bounded by it instead: its pair counters are charged 24 bytes a pair of frequent columns, and the run fails when that exceeds the budget")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the mining run after this long, e.g. 30s, 5m; 0 = no limit. Aborted runs clean up their spill files and exit non-zero")
	flag.BoolVar(&o.txns, "transactions", false, "input is named-transaction format (item names per line)")
	flag.BoolVar(&o.clusters, "clusters", false, "also group the found pairs into column clusters")
	flag.StringVar(&o.appendState, "append", "", "incremental: maintain an ingest snapshot at this path — catch up on the input's unseen rows (O(new rows), creating the snapshot if missing), save it back, then query from the merged sketch (mh, mlsh, kmh)")
	flag.StringVar(&o.resumeState, "resume", "", "incremental: like -append but read-only — load the snapshot and catch up in memory without rewriting it")
	flag.IntVar(&o.window, "window", 0, "sliding window: with -append/-resume, keep only the last N catch-up batches live; otherwise mine only the trailing N rows of the input (mh, kmh, mlsh, brute)")
	flag.IntVar(&o.distWorkers, "dist-workers", 0, "scale out across this many worker subprocesses (requires -stream; mh, kmh, mlsh, bps; not with a positive -mem-budget, -workers or -progress). Output is bit-identical to the single-process run")
	flag.BoolVar(&o.worker, "worker", false, "internal: run as a scale-out worker subprocess, speaking the dist protocol on stdin/stdout (used by -dist-workers)")
	flag.BoolVar(&o.metrics, "metrics", false, "print per-phase metrics in Prometheus text format after the run")
	flag.BoolVar(&o.progress, "progress", false, "report per-phase progress on stderr while mining")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/vars on this address while running (e.g. :8080)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&o.tracefile, "trace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if o.worker {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "assocfind:", err)
			os.Exit(1)
		}
		return
	}
	if o.in == "" {
		fmt.Fprintln(os.Stderr, "assocfind: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "assocfind:", err)
		os.Exit(1)
	}
}

func parseAlgo(s string) (assocmine.Algorithm, error) {
	switch strings.ToLower(s) {
	case "brute", "bruteforce":
		return assocmine.BruteForce, nil
	case "mh", "minhash":
		return assocmine.MinHash, nil
	case "kmh", "kminhash", "k-mh":
		return assocmine.KMinHash, nil
	case "mlsh", "minlsh", "m-lsh":
		return assocmine.MinLSH, nil
	case "hlsh", "hamminglsh", "h-lsh":
		return assocmine.HammingLSH, nil
	case "apriori", "a-priori":
		return assocmine.Apriori, nil
	case "bps", "biasedpairsampling":
		return assocmine.BPS, nil
	case "rules":
		return assocmine.Rules, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

func run(o options) error {
	if o.appendState != "" && o.resumeState != "" {
		return errors.New("-append and -resume are mutually exclusive")
	}
	if incr := o.appendState != "" || o.resumeState != ""; incr && o.txns {
		return errors.New("-append/-resume cannot be combined with -transactions")
	}
	budget, err := parseByteSize(o.memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	if o.distWorkers > 0 {
		if !o.stream {
			return errors.New("-dist-workers requires -stream")
		}
		// Each worker process folds, counts and verifies on one goroutine
		// and reports no progress, so -workers and -progress would be
		// ignored.
		if o.txns || o.appendState != "" || o.resumeState != "" || o.window != 0 || o.clusters || o.workers < 0 || o.workers > 1 || o.progress {
			return errors.New("-dist-workers cannot be combined with -transactions, -append, -resume, -window, -clusters, -workers or -progress")
		}
		// The dist workers take no verification budget: a flag the run
		// cannot honour is an error, not ignored.
		if budget > 0 {
			return errors.New("-dist-workers cannot be combined with a positive -mem-budget")
		}
	}
	stopDiag, err := startDiagnostics(o)
	if err != nil {
		return err
	}
	defer stopDiag()
	var (
		data  *assocmine.Dataset
		fd    *assocmine.FileDataset
		names []string
	)
	switch {
	case o.txns:
		data, names, err = assocmine.LoadTransactions(o.in)
	case o.stream:
		fd, err = assocmine.OpenFileDataset(o.in)
	default:
		data, err = assocmine.LoadDataset(o.in)
	}
	if err != nil {
		return err
	}
	label := func(c int) string {
		if names != nil {
			return names[c]
		}
		return fmt.Sprintf("c%d", c)
	}
	cols := 0
	if fd != nil {
		cols = fd.NumCols()
		fmt.Printf("streaming %s: %d rows x %d cols\n", o.in, fd.NumRows(), cols)
	} else {
		cols = data.NumCols()
		fmt.Printf("loaded %s: %d rows x %d cols, %d ones\n", o.in, data.NumRows(), cols, data.Ones())
	}

	var ctx context.Context
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
	}
	timedOut := func(err error) error {
		if o.timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("mining timed out after %v", o.timeout)
		}
		return err
	}

	a, err := parseAlgo(o.algo)
	if err != nil {
		return err
	}
	cfg := assocmine.Config{
		Algorithm: a, Threshold: o.threshold, K: o.k, R: o.r, L: o.l,
		MinSupport: o.support, SampleBudget: o.budget, Seed: o.seed,
		Workers: o.workers, MemoryBudget: budget, Context: ctx,
	}
	if o.appendState == "" && o.resumeState == "" {
		// Plain sliding-window mining; in incremental mode -window counts
		// batches and runIncremental derives the row window itself.
		cfg.Window = o.window
	}
	var coll *assocmine.Collector
	if o.metrics || o.metricsAddr != "" {
		coll = assocmine.NewCollector()
		cfg.Recorder = coll
	}
	if o.metricsAddr != "" {
		if err := serveMetrics(o.metricsAddr, coll); err != nil {
			return err
		}
	}
	if o.progress {
		cfg.Progress = progressPrinter(os.Stderr)
	}
	var res *assocmine.Result
	var pool *dist.Stats
	switch {
	case o.distWorkers > 0:
		res, pool, err = runDist(o, a, cfg)
	case o.appendState != "" || o.resumeState != "":
		res, err = runIncremental(o, a, cfg, cols, data, fd)
	case fd != nil:
		res, err = fd.SimilarPairs(cfg)
	default:
		res, err = assocmine.SimilarPairs(data, cfg)
	}
	if err != nil {
		return timedOut(err)
	}
	if a == assocmine.Rules {
		fmt.Printf("%d high-confidence rules (confidence >= %.2f):\n", len(res.Pairs), o.threshold)
	} else {
		fmt.Printf("%d similar pairs (similarity >= %.2f) via %v:\n", len(res.Pairs), o.threshold, a)
	}
	for i, p := range res.Pairs {
		if o.top > 0 && i >= o.top {
			fmt.Printf("  ... and %d more\n", len(res.Pairs)-o.top)
			break
		}
		if a == assocmine.Rules {
			fmt.Printf("  %s => %s  conf=%.3f (est %.3f)\n", label(p.I), label(p.J), p.Similarity, p.Estimate)
		} else {
			fmt.Printf("  (%s, %s)  sim=%.3f\n", label(p.I), label(p.J), p.Similarity)
		}
	}
	if o.clusters {
		groups := assocmine.Cluster(cols, res.Pairs, 0.5)
		fmt.Printf("%d clusters (pairwise density >= 0.5):\n", len(groups))
		for _, g := range groups {
			parts := make([]string, len(g))
			for i, c := range g {
				parts[i] = label(c)
			}
			fmt.Printf("  {%s}\n", strings.Join(parts, ", "))
		}
	}
	if o.stats {
		printStats(res.Stats)
	}
	if o.stats && pool != nil {
		fmt.Printf("dist: %d worker processes (%d restarts), %d jobs, %s shipped\n",
			pool.Workers, pool.Restarts, pool.Jobs, formatBytes(pool.BytesShipped))
	}
	if o.metrics {
		fmt.Println("metrics:")
		if err := assocmine.WriteMetrics(os.Stdout, coll); err != nil {
			return err
		}
	}
	return nil
}

// runDist routes the streamed run through the multi-process scale-out
// executor: the coordinator re-execs this binary with -worker for each
// subprocess. Its pairs are the single-process run's, pair for pair and
// bit for bit, and its Stats hold the phase times and pair counts; the
// pool's own counts come back beside them.
func runDist(o options, a assocmine.Algorithm, cfg assocmine.Config) (*assocmine.Result, *dist.Stats, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	dres, err := dist.Run(dist.Config{
		Path: o.in, Algorithm: dist.Algo(a), Threshold: o.threshold, K: o.k, R: o.r, L: o.l,
		SampleBudget: o.budget, Seed: o.seed, Workers: o.distWorkers, WorkerArgv: []string{exe, "-worker"},
		Context: cfg.Context, Recorder: cfg.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	s := dres.Stats
	res := &assocmine.Result{Pairs: make([]assocmine.Pair, len(dres.Pairs)), Stats: assocmine.Stats{
		SignatureTime: s.SignatureTime, CandidateTime: s.CandidateTime, VerifyTime: s.VerifyTime,
		Candidates: s.Candidates, Verified: s.Verified,
	}}
	for i, p := range dres.Pairs {
		res.Pairs[i] = assocmine.Pair(p)
	}
	return res, &s, nil
}

// runIncremental answers the query through an Ingest snapshot: load the
// snapshot (or start a fresh one for -append), fold only the input's
// unseen rows, persist the result when appending, and mine from the
// merged sketch — the full input is rescanned only by the verification
// pass, never by the sketch phase.
func runIncremental(o options, a assocmine.Algorithm, cfg assocmine.Config, cols int, data *assocmine.Dataset, fd *assocmine.FileDataset) (*assocmine.Result, error) {
	path, save := o.appendState, true
	if path == "" {
		path, save = o.resumeState, false
	}
	var in *assocmine.Ingest
	if _, statErr := os.Stat(path); statErr == nil {
		loaded, err := assocmine.LoadIngest(path)
		if err != nil {
			return nil, err
		}
		if loaded.Algorithm() != a || loaded.K() != o.k || loaded.Seed() != o.seed {
			return nil, fmt.Errorf("snapshot %s was built with -algo %v -k %d -seed %d; rerun with those flags or start a new snapshot",
				path, loaded.Algorithm(), loaded.K(), loaded.Seed())
		}
		if o.window != 0 && loaded.WindowBatches() != o.window {
			return nil, fmt.Errorf("snapshot %s uses a %d-batch window, -window asked for %d",
				path, loaded.WindowBatches(), o.window)
		}
		in = loaded
	} else if !save {
		return nil, fmt.Errorf("-resume: snapshot %s does not exist (use -append to create one)", path)
	} else {
		fresh, err := assocmine.NewIngest(a, cols, o.k, o.seed, o.window)
		if err != nil {
			return nil, err
		}
		in = fresh
	}
	var (
		n   int
		err error
	)
	if fd != nil {
		n, err = in.CatchUp(fd, o.workers)
	} else {
		n, err = in.CatchUpDataset(data, o.workers)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("incremental: %d new rows folded (total %d, live %d in %d checkpoints)\n",
		n, in.Rows(), in.LiveRows(), in.Windows())
	if save {
		if err := in.Save(path); err != nil {
			return nil, err
		}
	}
	if data == nil {
		// Verification needs row access; the sketch phase above already
		// avoided rescanning old rows.
		if data, err = fd.Load(); err != nil {
			return nil, err
		}
	}
	if in.WindowBatches() > 0 {
		cfg.Window = int(in.LiveRows())
	}
	var sketch assocmine.Resident
	if a == assocmine.KMinHash {
		sketch, err = in.Sketches()
	} else {
		sketch, err = in.Signatures()
	}
	if err != nil {
		return nil, err
	}
	return assocmine.SimilarPairsWith(data, sketch, cfg)
}

// startDiagnostics starts the requested pprof/trace captures and
// returns the function that stops them (and writes the heap profile).
func startDiagnostics(o options) (func(), error) {
	stops := []func(){}
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if o.tracefile != "" {
		f, err := os.Create(o.tracefile)
		if err != nil {
			stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if o.memprofile != "" {
		path := o.memprofile
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "assocfind: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "assocfind: memprofile:", err)
			}
			f.Close()
		})
	}
	return stop, nil
}

// serveMetrics exposes the collector on addr for the duration of the
// run: /metrics in Prometheus text format, /debug/vars via expvar. The
// handlers come from the shared registration helper assocserve uses,
// so the export wiring exists exactly once.
func serveMetrics(addr string, coll *assocmine.Collector) error {
	mux := http.NewServeMux()
	assocmine.RegisterMetricsHTTP(mux, "assocmine", coll)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

// progressPrinter reports phase progress to w, one line per whole
// percent (or phase change), so even huge runs stay readable.
func progressPrinter(w *os.File) assocmine.ProgressFunc {
	lastPhase := ""
	lastPct := int64(-1)
	return func(phase string, done, total int64) {
		pct := int64(100)
		if total > 0 {
			pct = done * 100 / total
		}
		if phase == lastPhase && pct == lastPct {
			return
		}
		lastPhase, lastPct = phase, pct
		fmt.Fprintf(w, "progress: %-10s %3d%% (%d/%d)\n", phase, pct, done, total)
	}
}

func printStats(s assocmine.Stats) {
	fmt.Printf("phases: signatures %v, candidates %v (%d pairs), verification %v (%d kept); total %v\n",
		s.SignatureTime, s.CandidateTime, s.Candidates, s.VerifyTime, s.Verified, s.Total())
	if s.SignatureWorkers > 1 || s.CandidateWorkers > 1 || s.VerifyWorkers > 1 {
		fmt.Printf("workers: signatures %d, candidates %d, verification %d\n",
			s.SignatureWorkers, s.CandidateWorkers, s.VerifyWorkers)
	}
	if s.PairsSampled > 0 {
		fmt.Printf("sampled: %d draws inspected, %d accepted, %d duplicates\n",
			s.PairsSampled, s.SampleAccepts, s.SampleDups)
	}
	if s.BytesRead > 0 || s.ShardsStreamed > 0 || s.SpillRuns > 0 {
		fmt.Printf("out-of-core: %s read, %d shards streamed, %d spill runs (%s)\n",
			formatBytes(s.BytesRead), s.ShardsStreamed, s.SpillRuns, formatBytes(s.SpillBytes))
	}
	if s.PackedBatches > 0 {
		fmt.Printf("packed kernel: %d popcount words in %d batches\n", s.PackedWords, s.PackedBatches)
	}
}

// parseByteSize parses a human-friendly byte count: a plain integer, or
// an integer with a K/M/G suffix (powers of 1024, optional trailing B,
// case-insensitive). Empty means 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.ToUpper(s)
	u = strings.TrimSuffix(u, "B")
	shift := 0
	switch {
	case strings.HasSuffix(u, "K"):
		shift, u = 10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		shift, u = 20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		shift, u = 30, u[:len(u)-1]
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n << shift, nil
}

// formatBytes renders n in the largest binary unit that keeps it exact
// enough to read (one decimal).
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
