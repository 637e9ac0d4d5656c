package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/lsh"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// Fault-injection environment variables, read by workers and set by
// the chaos tests. The coordinator stamps each worker process with its
// launch index via EnvWorkerIndex; a test selecting
// EnvCrashWorker=idx, EnvCrashAfter=n makes that worker exit(3) upon
// receiving its (n+1)-th job — mid-shard, before any reply — and
// EnvHangWorker=idx makes the worker sit on a job forever, exercising
// the coordinator's hang timeout. Replacement workers get fresh
// indexes >= the configured worker count, so injected faults are
// bounded by construction.
const (
	EnvWorkerIndex = "ASSOCDIST_WORKER_INDEX"
	EnvCrashWorker = "ASSOCDIST_CRASH_WORKER"
	EnvCrashAfter  = "ASSOCDIST_CRASH_AFTER"
	EnvHangWorker  = "ASSOCDIST_HANG_WORKER"
)

// worker is the subprocess side of the executor: one dataset handle,
// the hello parameters, and the per-phase derived structures, rebuilt
// lazily whenever a state broadcast replaces their inputs.
type worker struct {
	r    *bufio.Reader
	w    *bufio.Writer
	h    *hello
	fs   *matrix.FileSource
	fold fold.Fold // the algorithm's phase 1

	// sk is the coordinator's merged fold state, finished; the rangers
	// are built from it on first use by a candidate job.
	sk        fold.Sketch
	mhRanger  *candidate.MHRanger
	kmhRanger *candidate.KMHRanger

	// Fault injection (chaos tests only).
	index      int
	crashAt    int // job ordinal to die on; -1 disabled
	hang       bool
	jobsServed int
}

// WorkerMain runs the worker protocol over the given pipe ends until a
// quit frame or EOF; `assocfind -worker` calls it with stdin/stdout.
// Permanent faults (decode errors, dataset mismatches) are reported to
// the coordinator as an error frame before returning.
func WorkerMain(r io.Reader, w io.Writer) error {
	wk := &worker{
		r:       bufio.NewReaderSize(r, 1<<16),
		w:       bufio.NewWriterSize(w, 1<<16),
		index:   envInt(EnvWorkerIndex, -1),
		crashAt: -1,
	}
	if cw := envInt(EnvCrashWorker, -1); cw >= 0 && cw == wk.index {
		wk.crashAt = envInt(EnvCrashAfter, 0)
	}
	if hw := envInt(EnvHangWorker, -1); hw >= 0 && hw == wk.index {
		wk.hang = true
	}
	if err := wk.handshake(); err != nil {
		return wk.fail(err)
	}
	for {
		typ, payload, err := readFrame(wk.r)
		if err != nil {
			if err == io.EOF {
				return nil // coordinator went away; nothing to clean up
			}
			return err
		}
		switch typ {
		case frameQuit:
			return nil
		case frameState:
			if err := wk.setState(payload); err != nil {
				return wk.fail(err)
			}
		case frameJob:
			if wk.hang {
				// Chaos hook: sit on the job until the coordinator's
				// timeout kills the process.
				time.Sleep(24 * time.Hour)
			}
			if wk.crashAt >= 0 && wk.jobsServed == wk.crashAt {
				os.Exit(3) // chaos hook: die mid-shard, no reply
			}
			wk.jobsServed++
			res, err := wk.runJob(payload)
			if err != nil {
				return wk.fail(err)
			}
			if err := wk.send(frameResult, res); err != nil {
				return err
			}
		default:
			return wk.fail(fmt.Errorf("dist: unexpected frame %q", typ))
		}
	}
}

// handshake reads hello, opens the dataset, and answers ready.
func (wk *worker) handshake() error {
	typ, payload, err := readFrame(wk.r)
	if err != nil {
		return fmt.Errorf("dist: reading hello: %w", err)
	}
	if typ != frameHello {
		return fmt.Errorf("dist: expected hello, got frame %q", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	wk.h = h
	var ok bool
	if wk.fold, ok = fold.For(h.Algo); !ok {
		return fmt.Errorf("dist: unsupported algorithm %v", h.Algo)
	}
	fs, err := matrix.OpenFileSource(h.Path)
	if err != nil {
		return fmt.Errorf("dist: worker opening %s: %w", h.Path, err)
	}
	wk.fs = fs
	y := &ready{Rows: fs.NumRows(), Cols: fs.NumCols()}
	return wk.send(frameReady, y.encode())
}

// send writes one frame and flushes it onto the pipe.
func (wk *worker) send(typ byte, payload []byte) error {
	if err := writeFrame(wk.w, typ, payload); err != nil {
		return err
	}
	return wk.w.Flush()
}

// fail reports a permanent fault to the coordinator (best effort) and
// returns it.
func (wk *worker) fail(err error) error {
	_ = wk.send(frameError, []byte(err.Error()))
	return err
}

// setState installs the merged fold state, invalidating the caches
// derived from the previous one.
func (wk *worker) setState(payload []byte) error {
	st, err := readState(wk.fold, wk.h, wk.fs.NumCols(), payload)
	if err != nil {
		return err
	}
	wk.sk = st.Finish()
	wk.mhRanger, wk.kmhRanger = nil, nil
	return nil
}

// cutoff is the candidate-phase agreement cutoff, the exact formula of
// the single-process driver: (1-δ)·s*.
func (wk *worker) cutoff() float64 {
	return (1 - wk.h.Delta) * wk.h.Threshold
}

func (wk *worker) runJob(payload []byte) ([]byte, error) {
	j, err := decodeJob(payload)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case jobFold:
		return wk.runFold(j)
	case jobSample:
		return wk.runSample(j)
	case jobCand:
		return wk.runCand(j)
	case jobBands:
		return wk.runBands(j)
	case jobVerify:
		return wk.runVerify(j)
	}
	return nil, fmt.Errorf("dist: unhandled job kind %d", j.Kind)
}

// runFold folds the job's row range into a fresh state of the
// algorithm's fold and ships its snapshot; the coordinator merges
// snapshots with the exact Merge, so any row partition reproduces the
// full fold.
func (wk *worker) runFold(j *job) ([]byte, error) {
	st, err := wk.fold.New(wk.fs.NumCols(), wk.h.K, wk.h.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := fold.FoldStream(&matrix.RangeSource{Src: wk.fs, From: j.Lo, To: j.Hi}, st, 1); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runSample draws the biased pair samples of the job's row range using
// the broadcast global supports. Accept decisions are pure
// (seed,row,pair) hashes, so the coordinator's additive merge equals a
// full-scan's counts exactly.
func (wk *worker) runSample(j *job) ([]byte, error) {
	if wk.sk.Sup == nil {
		return nil, fmt.Errorf("dist: sample job before supports state")
	}
	opt := bps.Options{
		Threshold: wk.h.Threshold,
		Delta:     wk.h.Delta,
		Budget:    wk.h.SampleBudget,
		Seed:      wk.h.Seed,
	}
	counts, inspected, err := bps.SampleCounts(&matrix.RangeSource{Src: wk.fs, From: j.Lo, To: j.Hi}, wk.sk.Sup, opt)
	if err != nil {
		return nil, err
	}
	res := sampleResult{Inspected: inspected, Keys: counts.Keys, Counts: counts.N}
	return res.encode(), nil
}

// runCand generates the candidates owned by the job's column range,
// shipping them key-sorted (the wire's canonical order; the final
// SortScored makes emission order irrelevant).
func (wk *worker) runCand(j *job) ([]byte, error) {
	var cand []pairs.Scored
	var st candidate.Stats
	var err error
	switch wk.h.Algo {
	case MinHash:
		if wk.mhRanger == nil {
			if wk.sk.MH == nil {
				return nil, fmt.Errorf("dist: cand job before sig state")
			}
			wk.mhRanger, err = candidate.NewMHRanger(wk.sk.MH, wk.cutoff())
			if err != nil {
				return nil, err
			}
		}
		cand, st, err = wk.mhRanger.Columns(j.Lo, j.Hi)
	case KMinHash:
		if wk.kmhRanger == nil {
			if wk.sk.KMH == nil {
				return nil, fmt.Errorf("dist: cand job before sig state")
			}
			opt := candidate.KMHOptions{BiasedCutoff: wk.cutoff() / 2, UnbiasedCutoff: wk.cutoff()}
			wk.kmhRanger, err = candidate.NewKMHRanger(wk.sk.KMH, opt)
			if err != nil {
				return nil, err
			}
		}
		cand, st, err = wk.kmhRanger.Columns(j.Lo, j.Hi)
	default:
		return nil, fmt.Errorf("dist: cand job for %v", wk.h.Algo)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(cand, func(a, b int) bool { return pairKey(cand[a].Pair) < pairKey(cand[b].Pair) })
	res := candResult{Increments: st.Increments, Cand: cand}
	return res.encode(), nil
}

// runBands hashes the job's band range, choosing the same layout as
// the single-process driver: disjoint bands when k >= r*l, else the
// sampled Q_{r,l,k} layout at seed+1.
func (wk *worker) runBands(j *job) ([]byte, error) {
	if wk.sk.MH == nil {
		return nil, fmt.Errorf("dist: bands job before sig state")
	}
	var bands []lsh.BandPairs
	var err error
	if wk.h.K >= wk.h.R*wk.h.L {
		bands, err = lsh.CandidateBands(wk.sk.MH, wk.h.R, wk.h.L, j.Lo, j.Hi)
	} else {
		bands, err = lsh.SampledCandidateBands(wk.sk.MH, wk.h.R, wk.h.L, wk.h.Seed+1, j.Lo, j.Hi)
	}
	if err != nil {
		return nil, err
	}
	res := bandsResult{Bands: bands}
	return res.encode(), nil
}

// runVerify exact-counts the attached candidates over one file pass
// and ships the survivors as indices into the job's list.
func (wk *worker) runVerify(j *job) ([]byte, error) {
	out, _, err := verify.Exact(wk.fs, j.Cand, wk.h.Threshold)
	if err != nil {
		return nil, err
	}
	res := verifyResult{Indices: make([]int, 0, len(out)), Exact: make([]float64, 0, len(out))}
	// Survivors preserve input order, so one forward walk recovers the
	// indices.
	next := 0
	for _, p := range out {
		for next < len(j.Cand) && j.Cand[next].Pair != p.Pair {
			next++
		}
		if next == len(j.Cand) {
			return nil, fmt.Errorf("dist: survivor (%d,%d) not in candidate list", p.I, p.J)
		}
		res.Indices = append(res.Indices, next)
		res.Exact = append(res.Exact, p.Exact)
		next++
	}
	return res.encode(), nil
}

func envInt(name string, def int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return v
}
