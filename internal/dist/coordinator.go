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
	"assocmine/internal/driver"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// Config controls a distributed Run. Zero values select the same
// documented defaults as the single-process driver, so a (data, seed,
// parameters) job yields bit-identical pairs under both executors.
//
// The pool's policy is fixed: each data pass splits into one row range
// per worker, a crashed or hung worker is replaced at most maxRestarts
// times a run, and a job round-trip longer than jobTimeout counts as a
// hang.
type Config struct {
	// Path is the dataset file (.txt, .arows, or .carows). Workers open
	// it themselves — the pipes carry sketches and candidates, not rows.
	Path string
	// Algorithm picks the scheme; see Algo for the supported set.
	Algorithm Algo
	// Threshold is s*, required in (0,1].
	Threshold float64
	// K, R, L, SampleBudget and Seed have the single-process driver's
	// meanings and defaults: the one driver fills them, and Delta, with
	// candidate.Params.SetDefaults.
	K, R, L      int
	SampleBudget int
	Seed         uint64
	// Workers is the number of worker subprocesses, and of the row
	// ranges each data pass splits into; 0 means 1.
	Workers int
	// WorkerArgv is the worker subprocess command line, typically
	// {os.Executable(), "-worker"}; workers inherit the environment.
	// Required.
	WorkerArgv []string
	// Context, when non-nil, cancels the run, tearing down the process
	// tree promptly.
	Context context.Context
	// Recorder, when non-nil, receives the driver's phase spans and
	// pipeline counters plus the pool's dist_* counters.
	Recorder obs.Recorder
}

// maxRestarts bounds worker replacements across a run: a crashed or hung
// worker consumes one restart and its job is re-dispatched to a fresh
// subprocess; exceeding the budget aborts the run.
const maxRestarts = 3

// jobTimeout bounds a job round-trip: a worker that exceeds it is
// treated as hung, killed and replaced. A variable only so the hang
// test can shorten it.
var jobTimeout = 5 * time.Minute

func (c *Config) setDefaults() error {
	if c.Path == "" {
		return fmt.Errorf("dist: Path is required")
	}
	if len(c.WorkerArgv) == 0 {
		return fmt.Errorf("dist: WorkerArgv is required")
	}
	if c.Algorithm == fold.Rules {
		// fold.For would accept it (Rules folds MH signatures), but the
		// pool verifies by similarity and keeps no §6 pair table.
		return fmt.Errorf("dist: Rules runs single-process only; the pool verifies by similarity")
	}
	if _, ok := fold.For(c.Algorithm); !ok {
		return fmt.Errorf("dist: algorithm %d runs single-process only; the pool runs MH (1), K-MH (2), M-LSH (3) and BPS (6)", int(c.Algorithm))
	}
	c.Workers = max(c.Workers, 1)
	if c.Context == nil {
		c.Context = context.Background()
	}
	return nil
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

// coordinator is the driver's process-pool executor: it owns the
// worker pool and the pool's accounting, and splits each phase body it
// is handed into jobs.
type coordinator struct {
	cfg  *Config
	h    *hello    // set by the fold phase, which starts the pool
	fold fold.Fold // the algorithm's phase 1
	// ctx is the run-scoped context every worker subprocess is launched
	// under — not a phase context, or replacements spawned mid-phase
	// would be torn down when the phase ends.
	ctx   context.Context
	procs []*proc // one per scheduler slot
	rec   obs.Recorder
	stats Stats // Rows and Cols are the coordinator's view of the data
	// state is the merged fold-state snapshot, set once between phases:
	// live workers receive it before their next job, replacements before
	// their first.
	state []byte

	mu   sync.Mutex // guards next and the pool's counts in stats
	next int        // next worker index to assign
}

// Run executes the configured job across worker subprocesses: the
// driver's four steps with the coordinator as their executor. The
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
	ctx, cancel := context.WithCancel(cfg.Context)
	defer cancel()
	co := &coordinator{cfg: &cfg, ctx: ctx, rec: obs.OrNop(cfg.Recorder), stats: Stats{Rows: fs.NumRows(), Cols: fs.NumCols()}}
	defer func() {
		for _, p := range co.procs {
			co.quit(p)
		}
	}()
	run := obs.NewCollector()
	ps, err := driver.Mine(driver.Input{
		Src: fs, Verify: verify.Params{Context: ctx},
		Params: candidate.Params{
			Algo: cfg.Algorithm, K: cfg.K, R: cfg.R, L: cfg.L, SampleBudget: cfg.SampleBudget,
			Seed: cfg.Seed, Threshold: cfg.Threshold,
		},
		Column: -1, Recorder: obs.Tee(run, cfg.Recorder), Exec: co,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate, Similarity: p.Exact}
	}
	st := co.stats // the pool is idle: nothing else writes it
	st.Candidates, st.Verified = int(run.Counter(obs.CounterCandidates)), int(run.Counter(obs.CounterPairsVerified))
	st.SignatureTime = run.Span(obs.PhaseSignatures)
	st.CandidateTime = run.Span(obs.PhaseCandidates)
	st.VerifyTime = run.Span(obs.PhaseVerify)
	return &Result{Pairs: out, Stats: st}, nil
}

// Fold is phase 1 on the pool, for every scheme. It launches the
// workers, with p in their hello; the row ranges fold on them; their
// snapshots merge in arrival order with the fold's exact Merge —
// pointwise minima for MH, bounded multiset union for K-MH, addition for
// the BPS supports, all order-free — and the merged state is broadcast
// back (BPS needs the global supports: acceptance probabilities and the
// seed mix derive from them).
func (co *coordinator) Fold(f fold.Fold, p candidate.Params, _ matrix.RowSource) (fold.Sketch, error) {
	co.fold, co.h = f, &hello{Params: p, Path: co.cfg.Path}
	for len(co.procs) < co.cfg.Workers {
		w, err := co.spawn()
		if err != nil {
			return fold.Sketch{}, err
		}
		co.procs = append(co.procs, w)
	}
	var merged fold.State
	err := co.runPhase(rangeJobs(jobFold, co.stats.Rows, co.cfg.Workers), func(_ int, payload []byte) error {
		st, err := readState(co.fold, co.h, co.stats.Cols, payload)
		if err != nil || merged == nil {
			merged = st
			return err
		}
		return merged.Merge(st)
	})
	if err != nil {
		return fold.Sketch{}, err
	}
	var buf bytes.Buffer
	if err := merged.Snapshot(&buf); err != nil {
		return fold.Sketch{}, err
	}
	co.state = buf.Bytes()
	return merged.Finish(), nil
}

// Candidates is a sketch scheme's phase 2 on the pool: the column
// ranges of the scheme's kernel go to the workers, which build the
// kernel over the broadcast state, and their answers, which partition
// the candidates, concatenate into the serial scan's set.
func (co *coordinator) Candidates(s candidate.Scheme, _ func() (*candidate.Kernel, error), _ obs.Tick) ([]pairs.Scored, int64, error) {
	var cand []pairs.Scored
	var work int64
	err := co.runPhase(rangeJobs(jobCand, s.Units(), co.cfg.Workers), func(_ int, payload []byte) error {
		res, err := decodeCandResult(payload)
		if err != nil {
			return err
		}
		work += res.Work
		cand = append(cand, res.Cand...)
		return nil
	})
	return cand, work, err
}

// Sample is the BPS phase 2 on the pool: the row ranges are sampled
// against the broadcast global supports, and the tallies' additive
// merge is finalized here.
func (co *coordinator) Sample(_ matrix.RowSource, sup []int64, opt bps.Options) ([]pairs.Scored, bps.Stats, error) {
	var counts bps.Counts
	var inspected int64
	err := co.runPhase(rangeJobs(jobSample, co.stats.Rows, co.cfg.Workers), func(_ int, payload []byte) error {
		res, err := decodeSampleResult(payload)
		if err != nil {
			return err
		}
		inspected += res.Inspected
		counts = bps.MergeCounts(counts, bps.Counts{Keys: res.Keys, N: res.Counts})
		return nil
	})
	if err != nil {
		return nil, bps.Stats{}, err
	}
	cand, st, err := bps.FinalizeCounts(counts, sup, opt)
	st.Inspected = inspected
	return cand, st, err
}

// Verify is phase 3 on the pool: the candidates, sorted by pair key —
// the wire codec needs ascending runs, and the driver's final sort makes
// candidate order irrelevant to the output — go out in contiguous
// ranges, each pruned by the worker's verify.Verify under the hello's
// threshold. Touches add up over any partition to the single-process
// count; the packed counters depend on the partition.
func (co *coordinator) Verify(_ matrix.RowSource, cand []pairs.Scored, _ verify.Params) ([]pairs.Scored, verify.Stats, error) {
	var st verify.Stats
	if len(cand) == 0 {
		return nil, st, nil
	}
	pairs.SortByKey(cand)
	jobs := rangeJobs(jobVerify, len(cand), co.cfg.Workers)
	for _, j := range jobs {
		j.Cand = cand[j.Lo:j.Hi]
	}
	var verified []pairs.Scored
	err := co.runPhase(jobs, func(jobIdx int, payload []byte) error {
		res, err := decodeVerifyResult(payload)
		if err != nil {
			return err
		}
		st.Touches += res.Touches
		st.PackedWords += res.PackedWords
		st.PackedBatches += res.PackedBatches
		part := jobs[jobIdx].Cand
		for i, idx := range res.Indices {
			if idx >= len(part) {
				return fmt.Errorf("dist: verify index %d out of range", idx)
			}
			p := part[idx]
			p.Exact = res.Exact[i]
			verified = append(verified, p)
		}
		return nil
	})
	return verified, st, err
}

// runPhase dispatches jobs across the pool: each scheduler slot owns
// one worker subprocess, pulls job indexes from a shared channel, and
// retries a failed job on a fresh subprocess within the restart
// budget. handle is called serially, in arrival order; an error it
// returns fails the phase.
func (co *coordinator) runPhase(jobs []*job, handle func(jobIdx int, payload []byte) error) error {
	co.stats.Jobs += len(jobs)
	procs := co.procs
	idxCh := make(chan int)
	pctx, cancel := context.WithCancel(co.ctx)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex // serialises handle and guards firstErr
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
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
						mu.Lock()
						herr := handle(jobIdx, payload)
						mu.Unlock()
						if herr != nil {
							fail(herr)
							return
						}
						break
					}
					if pctx.Err() != nil {
						return
					}
					if _, ok := err.(errPermanent); ok {
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
	return co.ctx.Err()
}

// runJobOn synchronises the worker's broadcast state, ships one job,
// and waits for its result.
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
	return co.recv(ctx, p, frameResult)
}

// recv waits for the worker's next frame under the hang timeout and
// accounts its payload. A frame other than want — an error report
// included — is a permanent fault.
func (co *coordinator) recv(ctx context.Context, p *proc, want byte) ([]byte, error) {
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	select {
	case fr := <-p.frames:
		if fr.err != nil {
			return nil, fmt.Errorf("dist: worker %d: %w", p.index, fr.err)
		}
		co.ship(int64(len(fr.payload)))
		switch fr.typ {
		case want:
			return fr.payload, nil
		case frameError:
			return nil, errPermanent{fmt.Errorf("dist: worker %d: %s", p.index, fr.payload)}
		}
		return nil, errPermanent{fmt.Errorf("dist: worker %d sent frame %q, want %q", p.index, fr.typ, want)}
	case <-timer.C:
		return nil, fmt.Errorf("dist: worker %d exceeded the timeout %v", p.index, jobTimeout)
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
	payload, err := co.recv(co.ctx, p, frameReady)
	if err != nil {
		return err
	}
	y, err := decodeReady(payload)
	if err != nil {
		return errPermanent{err}
	}
	if y.Rows != co.stats.Rows || y.Cols != co.stats.Cols {
		return errPermanent{fmt.Errorf("dist: worker %d sees %dx%d, coordinator %dx%d",
			p.index, y.Rows, y.Cols, co.stats.Rows, co.stats.Cols)}
	}
	return nil
}

// restart burns one unit of the restart budget and spawns a
// replacement worker with a fresh index.
func (co *coordinator) restart() (*proc, error) {
	co.mu.Lock()
	co.stats.Restarts++
	over := co.stats.Restarts > maxRestarts
	co.mu.Unlock()
	if over {
		return nil, fmt.Errorf("dist: restart budget %d exhausted", maxRestarts)
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
	count = max(1, min(count, n))
	bounds := make([]int, count+1)
	for i := range bounds {
		bounds[i] = n * i / count
	}
	return bounds
}
