package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"assocmine"
)

// The timing protocol. One workload is one process:
//
//	generate inputs (untimed) → set-up script, repeated → one discarded
//	warm-up round → timed rounds → (with -trace) one traced round
//
// A round is the workload's fixed operation script, identical every
// time, with runtime.GC() before it and outside the clock. wall_s and
// setup_s are the median of the repetitions, never a single shot: see
// README.md, "Timing protocol", for the noise measurements behind that.

// sizing is what -scale selects besides the input sizes.
type sizing struct {
	tiny        bool
	minRounds   int     // timed rounds, at least
	maxRounds   int     // and at most, however long -seconds is
	minSetups   int     // set-up executions, at least
	maxSetups   int     // and at most
	setupBudget float64 // keep repeating the set-up script until this many seconds are spent
}

var (
	fullSizing = sizing{minRounds: 7, maxRounds: 15, minSetups: 5, maxSetups: 25, setupBudget: 4}
	tinySizing = sizing{tiny: true, minRounds: 2, maxRounds: 2, minSetups: 2, maxSetups: 2}
)

// workload is one set of inputs and its fixed operation script.
type workload interface {
	// generate writes the inputs for seed under dir and keeps the ground
	// truth; it returns the digest of every dataset it emitted.
	generate(dir string, seed uint64) (map[string]uint64, error)
	// setup is the system-side set-up script: fresh objects, outputs
	// overwritten, safe to repeat. It reports its parts by metric name.
	setup(part func(metric string, f func() error) error) error
	// round runs the operation script once.
	round() (*roundRec, error)
	// check judges a round's answers after the clock has stopped; warm
	// is the warm-up round, nil when r is the warm-up round itself.
	check(r, warm *roundRec, t *tally)
	// traced replays the script through the layers' public functions
	// and sets the workload's per-layer metrics. rounds are the timed
	// rounds; only the last still holds its jobs' results.
	traced(tr *tracer, m *metrics, rounds []*roundRec) error
	close()
}

// job is one mining job of a round.
type job struct {
	seg       string // the segment's metric name
	wall      float64
	cpu       float64 // this process's CPU seconds across the job
	childCPU  float64 // its waited-for children's (dist workers)
	res       *assocmine.Result
	err       error
	threshold float64
	truth     map[uint64]float64 // planted pair → exact similarity
	bad       string             // why the job failed its checks, "" if it passed
}

// roundRec is what one round produced.
type roundRec struct {
	wall float64
	jobs []job
	// serve-refresh only: the requests, and the service's own cache counters
	reqs                   []request
	cacheHits, cacheMisses int64
}

// opsMs is the latency in milliseconds of every operation of the round:
// its mining jobs, or its queries (the refresh is a write, timed apart).
func (r *roundRec) opsMs() []float64 {
	var ms []float64
	for _, j := range r.jobs {
		ms = append(ms, j.wall*1e3)
	}
	for i := range r.reqs {
		if r.reqs[i].q.kind != "refresh" {
			ms = append(ms, r.reqs[i].ms())
		}
	}
	return ms
}

// latencies returns p50_ms and p95_ms of the timed rounds' operations:
// the median over the rounds of each round's median and 95th
// percentile. A serve-refresh round has 300 queries, so its p95 has
// fifteen samples beyond it; a mining round has three or four jobs, and
// its p95 is the slowest. The issue asked for the p99 of the queries of
// all rounds pooled: over ten seeds on the sizing box that spread by
// 35–45 %, the rounds' own p99 (three samples beyond it) by 11–27 %,
// and the rounds' p95 by 4 % — one slow second of the box sets a p99.
func latencies(rounds []*roundRec) (p50, p95 float64) {
	var mids, tails []float64
	for _, r := range rounds {
		ms := r.opsMs()
		mids = append(mids, percentile(ms, 50))
		tails = append(tails, percentile(ms, 95))
	}
	return median(mids), median(tails)
}

// tally accumulates the checks behind ok_ratio and recall.
type tally struct {
	attempted, failed  int
	truthHit, truthAll int
	why                []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.why) < 8 {
		t.why = append(t.why, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runJob clocks one mining job.
func (r *roundRec) runJob(seg string, threshold float64, truth map[uint64]float64, f func() (*assocmine.Result, error)) {
	self, kids := cpuSeconds(syscall.RUSAGE_SELF), cpuSeconds(syscall.RUSAGE_CHILDREN)
	t := time.Now()
	res, err := f()
	r.jobs = append(r.jobs, job{
		seg: seg, wall: time.Since(t).Seconds(),
		cpu:      cpuSeconds(syscall.RUSAGE_SELF) - self,
		childCPU: cpuSeconds(syscall.RUSAGE_CHILDREN) - kids,
		res:      res, err: err, threshold: threshold, truth: truth,
	})
}

func (r *roundRec) job(seg string) *job {
	for i := range r.jobs {
		if r.jobs[i].seg == seg {
			return &r.jobs[i]
		}
	}
	return nil
}

// pairsDigest digests a result list in the order returned.
func pairsDigest(ps []assocmine.Pair) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range ps {
		for _, v := range [...]uint64{uint64(p.I), uint64(p.J), math.Float64bits(p.Similarity)} {
			h = (h ^ v) * 1099511628211
		}
	}
	return h
}

// checkJobs applies the mining checks, one verdict per job: no error;
// every returned similarity reaches the threshold and, for a planted
// pair, equals the generator's own count; the result digest equals the
// same segment's digest in the warm-up round. It also counts recall
// against the planted pairs whose exact similarity reaches the threshold.
func checkJobs(r, warm *roundRec, t *tally) {
	for i := range r.jobs {
		j := &r.jobs[i]
		if j.bad == "" {
			j.bad = judge(j, warm, t)
		}
		t.attempted++
		if j.bad != "" {
			t.fail("%s: %s", j.seg, j.bad)
		}
	}
}

func judge(j *job, warm *roundRec, t *tally) string {
	if j.err != nil {
		return j.err.Error()
	}
	found := 0
	for _, p := range j.res.Pairs {
		if p.Similarity < j.threshold {
			return fmt.Sprintf("pair (%d,%d) similarity %v below threshold %v", p.I, p.J, p.Similarity, j.threshold)
		}
		if exact, planted := j.truth[pairKey(p.I, p.J)]; planted {
			if math.Abs(exact-p.Similarity) > 1e-12 {
				return fmt.Sprintf("pair (%d,%d) similarity %v, exact count gives %v", p.I, p.J, p.Similarity, exact)
			}
			found++
		}
	}
	for _, s := range j.truth {
		if s >= j.threshold {
			t.truthAll++
		}
	}
	t.truthHit += found
	if warm != nil {
		if w := warm.job(j.seg); w == nil || w.err != nil || pairsDigest(w.res.Pairs) != pairsDigest(j.res.Pairs) {
			return "result differs from the warm-up round's"
		}
	}
	return ""
}

// samePairs reports whether two lists hold the same pairs with the same
// estimates and similarities, in any order.
func samePairs(a, b []assocmine.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]assocmine.Pair(nil), a...), append([]assocmine.Pair(nil), b...)
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// peakRSSMiB is the process's VmHWM plus what its dist workers held, in
// MiB. The kernel keeps only the largest waited-for child's maximum RSS;
// the distWorkers of a run work at once, on equal shares of the rows
// and into fold states of one size, so their sum is taken as that many
// times the largest. A workload without children adds nothing.
func peakRSSMiB() float64 {
	kb := 0.0
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					kb = v
				}
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
		kb += distWorkers * float64(ru.Maxrss)
	}
	return kb / 1024
}

// calibrator times the benchmark's own reference kernel: a sort of 2^20
// pseudo-random 64-bit keys (8 MiB) through sort.Slice. It runs before the set-ups, before every round and after
// the last, and every reported end-to-end time is scaled by
// calibNominal ÷ the run's median kernel time. The sizing box slows by
// 10–35 % for minutes at a time, for every workload at once, and most for
// code that lives in the shared cache; this kernel slowed in step with the
// workloads (r = 0.8–0.9 over ten runs) where a register-only loop
// moved a third as much. Scaling by it took the quartile spread of
// wall_s over ten seeds from 12–18 % to 5–13 % (AA.md; README.md,
// "Timing protocol").
type calibrator struct {
	src, buf []uint64
	times    []float64
}

// calibNominal is the kernel's time inside a workload process on the
// sizing box in a quiet stretch: a run there reports its times nearly
// as measured.
const calibNominal = 0.21

func newCalibrator() *calibrator {
	const keys = 1 << 20
	c := &calibrator{src: make([]uint64, keys), buf: make([]uint64, keys)}
	x := uint64(7)
	for i := range c.src {
		x = x*6364136223846793005 + 1442695040888963407
		c.src[i] = x
	}
	return c
}

func (c *calibrator) run() {
	copy(c.buf, c.src)
	t := time.Now()
	sort.Slice(c.buf, func(a, b int) bool { return c.buf[a] < c.buf[b] })
	c.times = append(c.times, time.Since(t).Seconds())
}

// outcome is the line the driver reads.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	all     *metrics          // everything the run measured, for the smoke test
	digests map[string]uint64 // of the generated datasets
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizing   sizing
	traceDir string
}

// runWorkload executes the protocol for one workload and prints its
// metrics to out.
func runWorkload(w workload, o options, out io.Writer) (*outcome, error) {
	defer w.close()
	dir, err := os.MkdirTemp("", "assocbench-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := newMetrics()
	sz := o.sizing

	t := time.Now()
	digests, err := w.generate(dir, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	m.set("bench.gen_s", time.Since(t).Seconds())

	cal := newCalibrator()
	cal.run()
	parts := map[string][]float64{}
	part := func(metric string, f func() error) error {
		t := time.Now()
		err := f()
		parts[metric] = append(parts[metric], time.Since(t).Seconds())
		return err
	}
	var setups []float64
	for spent := 0.0; len(setups) < sz.minSetups || (len(setups) < sz.maxSetups && spent < sz.setupBudget); {
		runtime.GC()
		t := time.Now()
		if err := w.setup(part); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += setups[len(setups)-1]
	}

	// Warm-up round: discarded for timing, kept as the reference answer.
	tl, wt := &tally{}, &tally{}
	runtime.GC()
	cal.run()
	warm, err := w.round()
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	w.check(warm, nil, wt)

	var (
		rounds []*roundRec
		walls  []float64
	)
	for spent := 0.0; len(rounds) < sz.minRounds || (len(rounds) < sz.maxRounds && spent < o.seconds); {
		runtime.GC()
		cal.run()
		r, err := w.round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds)+1, err)
		}
		w.check(r, warm, tl)
		if len(rounds) > 0 { // only the last round stays whole, for the traced round to compare with
			for i := range rounds[len(rounds)-1].jobs {
				rounds[len(rounds)-1].jobs[i].res = nil
			}
		}
		rounds, walls = append(rounds, r), append(walls, r.wall)
		spent += r.wall
	}
	cal.run()
	scale := calibNominal / median(cal.times)
	m.set("bench.calib_ms", median(cal.times)*1e3)
	m.set("bench.calib_scale", scale)
	m.set("setup_s", median(setups)*scale)
	m.set("bench.setup_raw_s", median(setups))
	m.set("bench.setup_runs", float64(len(setups)))
	for name, xs := range parts {
		m.set(name, median(xs))
	}
	m.set("bench.warmup_round_s", warm.wall)
	wall := median(walls)
	m.set("wall_s", wall*scale)
	m.set("bench.wall_raw_s", wall)
	p50, p95 := latencies(rounds)
	m.set("p50_ms", p50*scale)
	m.set("p95_ms", p95*scale)
	m.set("bench.rounds", float64(len(walls)))
	m.set("bench.warmup_ratio", ratio(warm.wall, wall))
	m.set("bench.round_iqr_ratio", iqrRatio(walls))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("ok_ratio", ratio(float64(tl.attempted-tl.failed), float64(tl.attempted)))
	m.set("recall", ratio(float64(tl.truthHit), float64(tl.truthAll)))
	segs := map[string][]float64{}
	for _, r := range rounds {
		for _, j := range r.jobs {
			segs[j.seg] = append(segs[j.seg], j.wall)
		}
	}
	for seg, xs := range segs {
		m.set(seg, median(xs))
	}

	correct := tl.failed == 0 && tl.attempted > 0 && wt.failed == 0
	for _, why := range wt.why {
		tl.why = append(tl.why, "warm-up round: "+why)
	}
	if o.trace {
		tr := newTracer(len(rounds) + 1)
		runtime.GC()
		if err := w.traced(tr, m, rounds); err != nil {
			correct = false
			tl.why = append(tl.why, "traced round: "+err.Error())
		}
		if path, err := tr.write(o.traceDir, o.workload); err != nil {
			return nil, err
		} else {
			fmt.Fprintf(out, "trace: %d spans in %s\n", len(tr.spans), path)
		}
	}

	fmt.Fprintf(out, "workload %s seed %d: %d timed rounds and %d set-up executions (medians reported, end-to-end times scaled by the calibration kernel); files in %s (page cache warm: no device is measured)\n",
		o.workload, o.seed, len(walls), len(setups), os.TempDir())
	fmt.Fprintf(out, "round walls (s): %.3f\n", walls)
	for _, j := range rounds[0].jobs { // in script order
		fmt.Fprintf(out, "  %-22s %.3f\n", j.seg, segs[j.seg])
	}
	fmt.Fprintf(out, "set-up executions (s): %.3f\n", setups)
	fmt.Fprintf(out, "calibration kernel (s): %.3f, nominal %.3f\n", cal.times, calibNominal)
	fmt.Fprint(out, m.table())
	for _, why := range tl.why {
		fmt.Fprintln(out, "FAILED:", why)
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	return &outcome{Correct: correct, Attempted: tl.attempted, Failed: tl.failed, Metrics: m.export(list), all: m, digests: digests}, nil
}
