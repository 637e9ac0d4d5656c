package dist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"

	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// worker is the subprocess side of the executor: one dataset handle,
// the hello parameters, and the phase-2 kernel, rebuilt lazily whenever
// a state broadcast replaces the sketch under it.
type worker struct {
	r    *bufio.Reader
	w    *bufio.Writer
	h    *hello
	fs   *matrix.FileSource
	fold fold.Fold // the algorithm's phase 1

	// sk is the coordinator's merged fold state, finished; the kernel is
	// built over it on first use by a candidate job.
	sk     fold.Sketch
	kernel *candidate.Kernel
}

// WorkerMain runs the worker protocol over the given pipe ends until a
// quit frame or EOF; `assocfind -worker` calls it with stdin/stdout.
// Permanent faults (decode errors, dataset mismatches) are reported to
// the coordinator as an error frame before returning.
func WorkerMain(r io.Reader, w io.Writer) error {
	wk := &worker{
		r: bufio.NewReaderSize(r, 1<<16),
		w: bufio.NewWriterSize(w, 1<<16),
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

// setState installs the merged fold state, invalidating the kernel
// built over the previous one.
func (wk *worker) setState(payload []byte) error {
	st, err := readState(wk.fold, wk.h, wk.fs.NumCols(), payload)
	if err != nil {
		return err
	}
	wk.sk, wk.kernel = st.Finish(), nil
	return nil
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
	counts, inspected, err := bps.SampleCounts(&matrix.RangeSource{Src: wk.fs, From: j.Lo, To: j.Hi}, wk.sk.Sup, wk.h.BPS(1))
	if err != nil {
		return nil, err
	}
	res := sampleResult{Inspected: inspected, Keys: counts.Keys, Counts: counts.N}
	return res.encode()
}

// runCand answers a column range of the scheme's phase-2 kernel — built,
// its whole index with it (every band of an M-LSH layout), once per
// broadcast state; a job before any state finds no sketch to build it
// over, a permanent error — with the range's candidates key-sorted: the
// wire's canonical order, and the driver's final sort makes emission
// order irrelevant.
func (wk *worker) runCand(j *job) ([]byte, error) {
	if wk.kernel == nil {
		k, err := candidate.For(context.Background(), wk.h.Params, wk.sk, 1)
		if err != nil {
			return nil, fmt.Errorf("dist: cand job: %w", err)
		}
		wk.kernel = k
	}
	cand, work, err := wk.kernel.Range(nil, j.Lo, j.Hi)
	if err != nil {
		return nil, err
	}
	pairs.SortByKey(cand)
	res := candResult{Work: work, Cand: cand}
	return res.encode()
}

// runVerify prunes the attached candidates with the kernel a
// single-process run picks for them (verify.Verify's auto dispatch over
// this slice) and ships the pass's work and the survivors, as indices
// into the job's list.
func (wk *worker) runVerify(j *job) ([]byte, error) {
	out, st, err := verify.Verify(wk.fs, j.Cand, verify.Params{Threshold: wk.h.Threshold})
	if err != nil {
		return nil, err
	}
	res := verifyResult{
		Touches: st.Touches, PackedWords: st.PackedWords, PackedBatches: st.PackedBatches,
		Indices: make([]int, 0, len(out)), Exact: make([]float64, 0, len(out)),
	}
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
