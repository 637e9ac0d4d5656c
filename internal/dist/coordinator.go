package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// Config controls a distributed Run. Zero values select the same
// documented defaults as the single-process driver, so a (data, seed,
// parameters) job yields bit-identical pairs under both executors.
type Config struct {
	// Path is the dataset file (.txt, .arows, or .carows). Workers open
	// it themselves — the pipes carry sketches and candidates, not rows.
	Path string
	// Algorithm picks the scheme; see Algo for the supported set.
	Algorithm Algo
	// Threshold is s*, required in (0,1].
	Threshold float64
	// Delta, K, R, L, SampleBudget and Seed have the single-process
	// driver's meanings and defaults: both fill them with
	// candidate.Params.SetDefaults.
	Delta        float64
	K, R, L      int
	SampleBudget int
	Seed         uint64
	// SkipVerify returns raw candidates without the exact pruning pass.
	SkipVerify bool
	// Workers is the number of worker subprocesses; 0 means 1.
	Workers int
	// RowJobs is the number of row ranges the data passes are split
	// into; 0 means Workers. More jobs than workers gives finer-grained
	// restart units at the cost of extra prefix skips.
	RowJobs int
	// MaxRestarts bounds worker replacements across the whole run;
	// 0 means 3. A crashed or hung worker consumes one restart and its
	// job is re-dispatched to a fresh subprocess; exceeding the budget
	// aborts the run.
	MaxRestarts int
	// JobTimeout bounds a single job round-trip; a worker that exceeds
	// it is treated as hung, killed, and restarted. 0 means 5 minutes.
	JobTimeout time.Duration
	// WorkerArgv is the worker subprocess command line, typically
	// {os.Executable(), "-worker"}. Required.
	WorkerArgv []string
	// Env appends to the workers' inherited environment.
	Env []string
	// Context, when non-nil, cancels the run, tearing down the process
	// tree promptly.
	Context context.Context
	// Recorder, when non-nil, receives phase spans plus the dist_*
	// counters alongside the shared pipeline counters.
	Recorder obs.Recorder
}

func (c *Config) setDefaults() error {
	if c.Path == "" {
		return fmt.Errorf("dist: Path is required")
	}
	if len(c.WorkerArgv) == 0 {
		return fmt.Errorf("dist: WorkerArgv is required")
	}
	if _, ok := fold.For(c.Algorithm); !ok {
		return fmt.Errorf("dist: unsupported algorithm %v", c.Algorithm)
	}
	p := c.params()
	if err := p.SetDefaults(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	c.K, c.R, c.L, c.SampleBudget, c.Delta = p.K, p.R, p.L, p.SampleBudget, p.Delta
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RowJobs <= 0 {
		c.RowJobs = c.Workers
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	return nil
}

// params is the configuration's phase-2 parameter set: what the shared
// defaults fill and the hello frame carries.
func (c Config) params() candidate.Params {
	return candidate.Params{
		Algo: c.Algorithm, K: c.K, R: c.R, L: c.L, SampleBudget: c.SampleBudget,
		Seed: c.Seed, Threshold: c.Threshold, Delta: c.Delta,
	}
}

func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Pair is a similar column pair in a distributed Result; it matches
// the single-process driver's output type field for field.
type Pair struct {
	I, J       int
	Estimate   float64
	Similarity float64
}

// Stats describes a distributed run.
type Stats struct {
	Rows, Cols int
	Candidates int
	Verified   int

	SignatureTime time.Duration
	CandidateTime time.Duration
	VerifyTime    time.Duration

	// Workers counts worker subprocesses launched, including
	// replacements; Restarts counts failed ranges re-dispatched to a
	// fresh subprocess; BytesShipped totals frame payload bytes in both
	// directions (the run's whole inter-process traffic).
	Workers      int
	Restarts     int
	BytesShipped int64
	Jobs         int
}

// Total returns the end-to-end running time.
func (s Stats) Total() time.Duration {
	return s.SignatureTime + s.CandidateTime + s.VerifyTime
}

// Result is the output of a distributed Run: pairs sorted exactly as
// the single-process driver sorts them.
type Result struct {
	Pairs []Pair
	Stats Stats
}

// errPermanent marks faults that a restart cannot fix: protocol
// errors, dataset mismatches, and worker-reported failures.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

func permanent(err error) bool {
	_, ok := err.(errPermanent)
	return ok
}

// proc is one live worker subprocess, owned by exactly one scheduler
// slot at a time.
type proc struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	frames   chan procFrame
	index    int
	hasState bool // the merged fold state has been sent
}

type procFrame struct {
	typ     byte
	payload []byte
	err     error
}

// coordinator owns the worker pool and the run-wide accounting.
type coordinator struct {
	cfg  *Config
	h    *hello
	fold fold.Fold // the algorithm's phase 1
	// ctx is the run-scoped context every worker subprocess is launched
	// under — not a phase context, or replacements spawned mid-phase
	// would be torn down when the phase ends.
	ctx   context.Context
	rows  int
	cols  int
	rec   obs.Recorder
	stats Stats
	// state is the merged fold-state snapshot, set once between phases:
	// live workers receive it before their next job, replacements before
	// their first.
	state []byte

	mu       sync.Mutex
	restarts int
	next     int // next worker index to assign
}

// Run executes the configured job across worker subprocesses. The
// returned pairs are bit-identical to the single-process streamed
// driver at the same (data, seed, parameters).
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	fs, err := matrix.OpenFileSource(cfg.Path)
	if err != nil {
		return nil, err
	}
	rec := obs.OrNop(cfg.Recorder)
	f, _ := fold.For(cfg.Algorithm) // setDefaults vouched for it
	co := &coordinator{
		cfg:  &cfg,
		fold: f,
		rows: fs.NumRows(),
		cols: fs.NumCols(),
		rec:  rec,
		h:    &hello{Params: cfg.params(), Path: cfg.Path},
	}
	co.stats.Rows, co.stats.Cols = co.rows, co.cols

	ctx, cancel := context.WithCancel(cfg.context())
	defer cancel()
	co.ctx = ctx

	procs := make([]*proc, 0, cfg.Workers)
	defer func() {
		for _, p := range procs {
			co.quit(p)
		}
	}()
	for i := 0; i < cfg.Workers; i++ {
		p, err := co.spawn()
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}

	cand, err := co.candidates(ctx, procs)
	if err != nil {
		return nil, err
	}
	co.stats.Candidates = len(cand)
	rec.Add(obs.CounterCandidates, int64(len(cand)))

	var out []Pair
	if cfg.SkipVerify {
		pairs.SortScored(cand)
		out = make([]Pair, len(cand))
		for i, p := range cand {
			out[i] = Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate}
		}
	} else {
		verified, err := co.verify(ctx, procs, cand)
		if err != nil {
			return nil, err
		}
		co.stats.Verified = len(verified)
		rec.Add(obs.CounterPairsVerified, int64(len(verified)))
		rec.Add(obs.CounterFalsePositives, int64(len(cand)-len(verified)))
		pairs.SortScored(verified)
		out = make([]Pair, len(verified))
		for i, p := range verified {
			out[i] = Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate, Similarity: p.Exact}
		}
	}
	co.mu.Lock()
	co.stats.Restarts = co.restarts
	co.mu.Unlock()
	return &Result{Pairs: out, Stats: co.stats}, nil
}

// candidates runs the algorithm's pre-verification phases and returns
// the candidate set: the fold phase every scheme shares, then the
// scheme's own phase 2.
func (co *coordinator) candidates(ctx context.Context, procs []*proc) ([]pairs.Scored, error) {
	merged, err := co.foldPhase(ctx, procs)
	if err != nil {
		return nil, err
	}
	if co.cfg.Algorithm == BPS {
		return co.samplePhase(ctx, procs, merged.Finish().Sup)
	}
	return co.candPhase(ctx, procs)
}

// foldPhase is phase 1 for every scheme: the row ranges fold on the
// workers, their snapshots merge in arrival order with the fold's exact
// Merge — pointwise minima for MH, bounded multiset union for K-MH,
// addition for the BPS supports, all order-free — and the merged state
// is broadcast back (BPS needs the global supports: acceptance
// probabilities and the seed mix derive from them).
func (co *coordinator) foldPhase(ctx context.Context, procs []*proc) (fold.State, error) {
	end := co.span(obs.PhaseSignatures)
	var merged fold.State
	err := co.runPhase(ctx, procs, rangeJobs(jobFold, co.rows, co.cfg.RowJobs), func(_ int, payload []byte) error {
		st, err := readState(co.fold, co.h, co.cols, payload)
		if err != nil {
			return errPermanent{err}
		}
		if merged == nil {
			merged = st
			return nil
		}
		return merged.Merge(st)
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := merged.Snapshot(&buf); err != nil {
		return nil, err
	}
	co.state = buf.Bytes()
	co.stats.SignatureTime = end()
	return merged, nil
}

// candPhase distributes the sketch schemes' phase 2: the unit ranges of
// the scheme's kernel (columns for the counting schemes, bands for
// M-LSH) go to the workers, and their answers combine by the scheme's
// own rule — its Gatherer — so the result equals the serial scan's set.
func (co *coordinator) candPhase(ctx context.Context, procs []*proc) ([]pairs.Scored, error) {
	end := co.span(obs.PhaseCandidates)
	defer func() { co.stats.CandidateTime = end() }()
	scheme, err := candidate.SchemeFor(co.h.Params, co.cols)
	if err != nil {
		return nil, err
	}
	var cand []pairs.Scored
	var work int64
	gather := scheme.Gatherer()
	jobs := rangeJobs(jobCand, scheme.Units(), co.cfg.Workers)
	err = co.runPhase(ctx, procs, jobs, func(_ int, payload []byte) error {
		res, err := decodeCandResult(payload)
		if err != nil {
			return errPermanent{err}
		}
		work += res.Work
		cand = gather.Add(cand, res.Cand)
		return nil
	})
	if err != nil {
		return nil, err
	}
	co.rec.Add(scheme.Counter, work)
	return cand, nil
}

// samplePhase is the BPS phase 2: the row ranges are sampled against
// the broadcast global supports and the additive count merge is
// finalized.
func (co *coordinator) samplePhase(ctx context.Context, procs []*proc, sup []int64) ([]pairs.Scored, error) {
	end := co.span(obs.PhaseCandidates)
	var counts bps.Counts
	var inspected int64
	jobs := rangeJobs(jobSample, co.rows, co.cfg.RowJobs)
	err := co.runPhase(ctx, procs, jobs, func(_ int, payload []byte) error {
		res, err := decodeSampleResult(payload)
		if err != nil {
			return errPermanent{err}
		}
		inspected += res.Inspected
		counts = bps.MergeCounts(counts, bps.Counts{Keys: res.Keys, N: res.Counts})
		return nil
	})
	if err != nil {
		return nil, err
	}
	cand, bst, err := bps.FinalizeCounts(counts, sup, co.h.BPS(1))
	if err != nil {
		return nil, err
	}
	co.rec.Add(obs.CounterPairsSampled, inspected)
	co.rec.Add(obs.CounterSampleAccepts, bst.Accepts)
	if bst.Dups != 0 {
		co.rec.Add(obs.CounterSampleDups, bst.Dups)
	}
	co.stats.CandidateTime = end()
	return cand, nil
}

// verify sorts the candidates by pair key — the wire codec needs
// ascending runs, and the final similarity sort makes candidate order
// irrelevant to the output — splits them into contiguous ranges, and
// fans the exact pruning pass out.
func (co *coordinator) verify(ctx context.Context, procs []*proc, cand []pairs.Scored) ([]pairs.Scored, error) {
	end := co.span(obs.PhaseVerify)
	defer func() { co.stats.VerifyTime = end() }()
	if len(cand) == 0 {
		return nil, nil
	}
	pairs.SortByKey(cand)
	njobs := co.cfg.Workers
	if njobs > len(cand) {
		njobs = len(cand)
	}
	bounds := splitRange(len(cand), njobs)
	jobs := make([]*job, njobs)
	for i := 0; i < njobs; i++ {
		jobs[i] = &job{Kind: jobVerify, Cand: cand[bounds[i]:bounds[i+1]]}
	}
	var verified []pairs.Scored
	var work verifyResult
	err := co.runPhase(ctx, procs, jobs, func(jobIdx int, payload []byte) error {
		res, err := decodeVerifyResult(payload)
		if err != nil {
			return errPermanent{err}
		}
		work.Touches += res.Touches
		work.PackedWords += res.PackedWords
		work.PackedBatches += res.PackedBatches
		base := bounds[jobIdx]
		part := jobs[jobIdx].Cand
		for i, idx := range res.Indices {
			if idx >= len(part) {
				return errPermanent{fmt.Errorf("dist: verify index %d out of range", idx)}
			}
			p := cand[base+idx]
			p.Exact = res.Exact[i]
			verified = append(verified, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Touches are additive over any candidate partition and equal the
	// single-process count; the packed counters depend on the partition.
	co.rec.Add(obs.CounterVerifyTouches, work.Touches)
	if work.PackedBatches != 0 {
		co.rec.Add(obs.CounterPackedWords, work.PackedWords)
		co.rec.Add(obs.CounterPackedBatches, work.PackedBatches)
	}
	return verified, nil
}

// runPhase dispatches jobs across the pool: each scheduler slot owns
// one worker subprocess, pulls job indexes from a shared channel, and
// retries a failed job on a fresh subprocess within the restart
// budget. handle is called serially, in arrival order.
func (co *coordinator) runPhase(ctx context.Context, procs []*proc, jobs []*job, handle func(jobIdx int, payload []byte) error) error {
	co.stats.Jobs += len(jobs)
	idxCh := make(chan int)
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	var handleMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	for slot := range procs {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p := procs[slot]
			for {
				var jobIdx int
				var ok bool
				select {
				case jobIdx, ok = <-idxCh:
					if !ok {
						return
					}
				case <-pctx.Done():
					return
				}
				for {
					payload, err := co.runJobOn(pctx, p, jobs[jobIdx])
					if err == nil {
						handleMu.Lock()
						herr := handle(jobIdx, payload)
						handleMu.Unlock()
						if herr != nil {
							fail(herr)
							return
						}
						break
					}
					if pctx.Err() != nil {
						return
					}
					if permanent(err) {
						fail(err)
						return
					}
					// Transient: kill the worker, burn one restart, and
					// retry the same range on a fresh subprocess.
					co.kill(p)
					np, rerr := co.restart()
					if rerr != nil {
						fail(fmt.Errorf("dist: job %d failed (%v); %w", jobIdx, err, rerr))
						return
					}
					p = np
					procs[slot] = np
				}
			}
		}(slot)
	}
	for i := range jobs {
		select {
		case idxCh <- i:
		case <-pctx.Done():
		}
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runJobOn synchronises the worker's broadcast state, ships one job,
// and waits for its result under the hang timeout.
func (co *coordinator) runJobOn(ctx context.Context, p *proc, jb *job) ([]byte, error) {
	if co.state != nil && !p.hasState {
		if err := co.sendFrame(p, frameState, co.state); err != nil {
			return nil, err
		}
		p.hasState = true
	}
	payload, err := jb.encode()
	if err != nil {
		return nil, errPermanent{err}
	}
	if err := co.sendFrame(p, frameJob, payload); err != nil {
		return nil, err
	}
	timer := time.NewTimer(co.cfg.JobTimeout)
	defer timer.Stop()
	select {
	case fr := <-p.frames:
		if fr.err != nil {
			return nil, fmt.Errorf("dist: worker %d: %w", p.index, fr.err)
		}
		co.ship(int64(len(fr.payload)))
		switch fr.typ {
		case frameResult:
			return fr.payload, nil
		case frameError:
			return nil, errPermanent{fmt.Errorf("dist: worker %d: %s", p.index, fr.payload)}
		default:
			return nil, errPermanent{fmt.Errorf("dist: worker %d sent unexpected frame %q", p.index, fr.typ)}
		}
	case <-timer.C:
		return nil, fmt.Errorf("dist: worker %d exceeded job timeout %v", p.index, co.cfg.JobTimeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// spawn launches and handshakes one worker subprocess under the
// run-scoped context.
func (co *coordinator) spawn() (*proc, error) {
	co.mu.Lock()
	index := co.next
	co.next++
	co.mu.Unlock()
	argv := co.cfg.WorkerArgv
	cmd := exec.CommandContext(co.ctx, argv[0], argv[1:]...)
	cmd.Env = append(append(os.Environ(), co.cfg.Env...),
		fmt.Sprintf("%s=%d", envWorkerIndex, index))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: launching worker: %w", err)
	}
	p := &proc{
		cmd:    cmd,
		stdin:  stdin,
		frames: make(chan procFrame, 4),
		index:  index,
	}
	go func() {
		for {
			typ, payload, err := readFrame(stdout)
			if err != nil {
				p.frames <- procFrame{err: err}
				return
			}
			p.frames <- procFrame{typ: typ, payload: payload}
		}
	}()
	co.mu.Lock()
	co.stats.Workers++
	co.mu.Unlock()
	co.rec.Add(obs.CounterDistWorkers, 1)
	if err := co.handshake(p); err != nil {
		co.kill(p)
		return nil, err
	}
	return p, nil
}

// handshake sends hello and validates the worker's ready answer
// against the coordinator's own view of the dataset.
func (co *coordinator) handshake(p *proc) error {
	if err := co.sendFrame(p, frameHello, co.h.encode()); err != nil {
		return fmt.Errorf("dist: worker %d hello: %w", p.index, err)
	}
	timer := time.NewTimer(co.cfg.JobTimeout)
	defer timer.Stop()
	select {
	case fr := <-p.frames:
		if fr.err != nil {
			return fmt.Errorf("dist: worker %d handshake: %w", p.index, fr.err)
		}
		co.ship(int64(len(fr.payload)))
		if fr.typ == frameError {
			return errPermanent{fmt.Errorf("dist: worker %d: %s", p.index, fr.payload)}
		}
		if fr.typ != frameReady {
			return errPermanent{fmt.Errorf("dist: worker %d answered hello with frame %q", p.index, fr.typ)}
		}
		y, err := decodeReady(fr.payload)
		if err != nil {
			return errPermanent{err}
		}
		if y.Rows != co.rows || y.Cols != co.cols {
			return errPermanent{fmt.Errorf("dist: worker %d sees %dx%d, coordinator %dx%d",
				p.index, y.Rows, y.Cols, co.rows, co.cols)}
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("dist: worker %d handshake timed out", p.index)
	case <-co.ctx.Done():
		return co.ctx.Err()
	}
}

// restart burns one unit of the restart budget and spawns a
// replacement worker with a fresh index.
func (co *coordinator) restart() (*proc, error) {
	co.mu.Lock()
	co.restarts++
	over := co.restarts > co.cfg.MaxRestarts
	co.mu.Unlock()
	if over {
		return nil, fmt.Errorf("dist: restart budget %d exhausted", co.cfg.MaxRestarts)
	}
	co.rec.Add(obs.CounterDistRestarts, 1)
	return co.spawn()
}

// sendFrame writes one frame to the worker and accounts its payload.
func (co *coordinator) sendFrame(p *proc, typ byte, payload []byte) error {
	if err := writeFrame(p.stdin, typ, payload); err != nil {
		return err
	}
	co.ship(int64(len(payload)))
	return nil
}

func (co *coordinator) ship(n int64) {
	co.mu.Lock()
	co.stats.BytesShipped += n
	co.mu.Unlock()
	if n > 0 {
		co.rec.Add(obs.CounterDistBytesShipped, n)
	}
}

// quit asks a worker to exit and reaps it; kill is the impolite
// variant for workers presumed broken.
func (co *coordinator) quit(p *proc) {
	_ = writeFrame(p.stdin, frameQuit, nil)
	_ = p.stdin.Close()
	done := make(chan struct{})
	go func() { _ = p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

func (co *coordinator) kill(p *proc) {
	_ = p.cmd.Process.Kill()
	_ = p.stdin.Close()
	_ = p.cmd.Wait()
}

// span opens an obs phase span; the returned func closes it and
// reports the duration.
func (co *coordinator) span(name string) func() time.Duration {
	co.rec.PhaseStart(name)
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		co.rec.PhaseEnd(name, d)
		return d
	}
}

// rangeJobs splits [0,n) into count contiguous jobs of the given kind
// (count is clamped to n so no job is empty unless n is 0).
func rangeJobs(kind jobKind, n, count int) []*job {
	bounds := splitRange(n, count)
	jobs := make([]*job, len(bounds)-1)
	for i := range jobs {
		jobs[i] = &job{Kind: kind, Lo: bounds[i], Hi: bounds[i+1]}
	}
	return jobs
}

// splitRange returns count+1 even boundaries over [0,n), clamping
// count to [1, max(n,1)].
func splitRange(n, count int) []int {
	if count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	bounds := make([]int, count+1)
	for i := 0; i <= count; i++ {
		bounds[i] = n * i / count
	}
	return bounds
}
