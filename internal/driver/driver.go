// Package driver is the one sequencer of the paper's three-phase
// template (§2). Every entry point of the root package, and dist.Run,
// hands an Input to Mine (or Search, Progressive, Sketch), which walk
// the same four steps:
//
//	sketch      phase 1: fold the source, or adopt a precomputed sketch
//	            and the phase-2 index it carries
//	candidates  phase 2: the scheme's kernel over the index, BPS's
//	            sampling pass, or a scheme that reads the data itself
//	verify      phase 3: one exact pass pruning the candidates by the
//	            scheme's measure — similarity unless it names another
//	finish      pass, I/O and pair counters onto the Recorder
//
// The driver owns the spans, the counters, the progress sink and the
// counted source, so what a run reports cannot depend on which entry
// point reached a step. An Executor runs each phase's partitionable
// body: goroutines here, or dist's pool of worker processes.
package driver

import (
	"context"
	"fmt"
	"time"

	"assocmine/internal/apriori"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/hamminglsh"
	"assocmine/internal/matrix"
	"assocmine/internal/measures"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
	"assocmine/internal/verify"
)

// Input is one run: the data, its phases' parameters and the hooks.
type Input struct {
	// Src is the data as handed in.
	Src matrix.RowSource
	// Params is the run's parameter set; Algo names the scheme. Mine,
	// Search and Progressive fill its defaults.
	Params candidate.Params
	// Verify is phase 3's kernel and budget. Its Workers and Context are
	// the run's — every phase spreads over the one and checks the other —
	// and the driver sets its Threshold, Measure and Tick.
	Verify verify.Params
	// SkipVerify returns the candidates unverified. Window, when
	// positive, mines the trailing Window rows alone.
	SkipVerify bool
	Window     int
	// Column, when >= 0, restricts a sketch scheme's phase 2 to the pairs
	// containing it, on the local executor (Search's too); -1: every pair.
	Column int
	// MinSupport is a-priori's support fraction; its byte budget is
	// Verify.Budget.Bytes, which nothing else reads in such a run.
	MinSupport float64
	// Adopted, when non-nil, is taken in place of the phase-1 fold.
	Adopted  *Adopted
	Recorder obs.Recorder
	Progress obs.ProgressFunc
	// Exec runs the partitionable phase bodies; nil runs them here.
	Exec Executor
}

// run is one walk of the steps.
type run struct {
	in      Input
	p       candidate.Params
	ctx     context.Context
	workers int
	rec     obs.Recorder
	prog    *progressSink
	exec    Executor
	local   bool // exec is this process's: it reads the counted source

	// probe is the source as handed in; the I/O accounting interfaces
	// are read off it, since every wrapper hides them. base is probe cut
	// to the sliding window; the in-memory fast-path interfaces
	// (ColumnLister, ConcurrentSource) are read off it, and RangeSource
	// hides them on purpose, so a windowed run only scans its window
	// (a file skip-decodes the rows before it).
	// counting is base under the context wrapper (a cancelled scan
	// aborts at its next row) with passes and rows counted: every
	// sequential scan of a run reads it, and a fast path that bypasses
	// it accounts its I/O-equivalent pass with countPass.
	probe, base matrix.RowSource
	counting    *matrix.CountingSource

	// kept is the adopted sketch with its memos; empty when the run folds
	// its own sketch and drops what it builds over it.
	kept Adopted

	ioAtStart ioCounts

	candidates, verified, falsePositives int // for finish
}

func newRun(in Input) *run {
	src := in.Src
	r := &run{
		in:        in,
		p:         in.Params,
		ctx:       in.Verify.Context,
		workers:   max(in.Verify.Workers, 1),
		rec:       obs.OrNop(in.Recorder),
		exec:      in.Exec,
		probe:     src,
		base:      src,
		ioAtStart: readIOCounts(src),
	}
	if from := src.NumRows() - in.Window; in.Window > 0 && from > 0 {
		r.base = &matrix.RangeSource{Src: src, From: from, To: src.NumRows()}
	}
	r.counting = &matrix.CountingSource{Src: matrix.WithContext(r.ctx, r.base)}
	if in.Progress != nil {
		r.prog = &progressSink{fn: in.Progress}
	}
	if r.exec == nil {
		r.exec, r.local = local{r}, true
	}
	return r
}

// start is a run whose parameters have their defaults.
func start(in Input) (*run, error) {
	if err := in.Params.SetDefaults(); err != nil {
		return nil, err
	}
	return newRun(in), nil
}

// Sketch is phase 1 alone: the fold of Params.Algo over the source, for
// a sketch kept to answer queries from.
func Sketch(in Input) (fold.Sketch, error) {
	return newRun(in).sketch()
}

// Mine runs the four steps over the Input's scheme and returns the
// pairs that are left: by decreasing similarity, or for rules by
// decreasing confidence once verified and in phase 2's order before.
func Mine(in Input) ([]pairs.Scored, error) {
	r, err := start(in)
	if err != nil {
		return nil, err
	}
	sch, err := r.scheme()
	if err != nil {
		return nil, err
	}
	sk, err := r.sketch()
	if err != nil {
		return nil, err
	}
	ps, err := phase(r, obs.PhaseCandidates, func(tick obs.Tick) ([]pairs.Scored, error) {
		return sch.generate(sk, tick)
	})
	if err != nil {
		return nil, err
	}
	r.candidates = len(ps)
	r.ran(obs.GaugeCandidateWorkers, sch.parallel)
	if sch.exact {
		r.verified = len(ps)
	} else if !in.SkipVerify {
		if ps, err = r.verify(sch.measure, ps); err != nil {
			return nil, err
		}
	}
	r.finish()
	if r.p.Algo != fold.Rules || !in.SkipVerify {
		pairs.SortScored(ps) // for rules: (confidence, I, J)
	}
	return ps, nil
}

// phase brackets one phase with its recorder span and progress window.
func phase[T any](r *run, name string, body func(tick obs.Tick) (T, error)) (T, error) {
	tick := r.prog.enter(name)
	r.rec.PhaseStart(name)
	t0 := time.Now()
	out, err := body(tick)
	if err != nil {
		return out, err
	}
	r.rec.PhaseEnd(name, time.Since(t0))
	r.prog.finish(name)
	return out, nil
}

// ticked is the counted source reporting row progress to tick: the
// view a phase's single sequential reader scans.
func (r *run) ticked(tick obs.Tick) matrix.RowSource {
	if tick == nil {
		return r.counting
	}
	return &matrix.ProgressSource{Src: r.counting, Tick: tick}
}

// ran records, on gauge, the goroutine budget a phase ran under here
// when it could spread over it.
func (r *run) ran(gauge string, parallel bool) {
	if r.local && parallel {
		r.rec.SetGauge(gauge, int64(r.workers))
	}
}

// countPass accounts one I/O-equivalent pass for a fast path that read
// the in-memory data without scanning the counted source, so
// DataPasses and RowsScanned match the scanning run of the same job.
func (r *run) countPass() {
	r.counting.Passes++
	r.counting.Rows += int64(r.base.NumRows())
}

// sketch is phase 1. An adopted sketch was paid for when it was
// computed, so it gets no signature span or cell counter; the gauge
// still reports its resident size. Schemes without a fold (they read
// the data directly) leave the sketch empty.
func (r *run) sketch() (fold.Sketch, error) {
	if pre := r.in.Adopted; pre != nil {
		r.rec.SetGauge(obs.GaugeSignatureBytes, pre.Cells()*8)
		r.kept = *pre
		return pre.Sketch, nil
	}
	f, ok := fold.For(r.p.Algo)
	if !ok {
		return fold.Sketch{}, nil
	}
	sk, err := phase(r, obs.PhaseSignatures, func(tick obs.Tick) (fold.Sketch, error) {
		return r.exec.Fold(f, r.p, r.ticked(tick))
	})
	if err != nil {
		return fold.Sketch{}, err
	}
	r.ran(obs.GaugeSignatureWorkers, !f.Serial)
	cells := sk.Cells()
	r.rec.Add(obs.CounterSignatureCells, cells)
	r.rec.SetGauge(obs.GaugeSignatureBytes, cells*8)
	return sk, nil
}

// index is the phase-2 index of p's scheme over sk: the adopted
// sketch's own — built by the first query that needs it, counted once,
// its resident size reported by every query that uses it — or one built
// for this run and dropped with its sketch.
func (r *run) index(p candidate.Params, sk fold.Sketch) (*candidate.Index, error) {
	build := func() (*candidate.Index, error) { return candidate.IndexFor(r.ctx, p, sk, r.workers) }
	ix, err := r.kept.Index.get(r.rec, candidate.IndexBytes(p, sk),
		func(ix *candidate.Index) bool { return ix.Serves(p) }, build)
	if ix != nil || err != nil {
		return ix, err
	}
	return build()
}

// kernel is p's kernel over sk's index — a Search's under floor p, with
// search set. A scan over an adopted K-MH sketch reads its Counts: kept,
// like §6's table, by the first query that scans, while its bound fits
// the memo; a one-column query counts its column's both sides instead.
func (r *run) kernel(p candidate.Params, sk fold.Sketch, search bool) (*candidate.Kernel, error) {
	ix, err := r.index(p, sk)
	if err != nil {
		return nil, err
	}
	kernel, searcher := ix.Kernel, ix.Search
	if r.in.Column < 0 {
		t, err := r.kept.Counts.get(r.rec, ix.CountsBytes(), nil, func() (*candidate.Counts, error) { return ix.Count(r.ctx, r.workers) })
		if err != nil {
			return nil, err
		}
		if t != nil {
			kernel, searcher = t.Kernel, t.Search
		}
	}
	if search {
		return searcher(p)
	}
	return kernel(p)
}

// table is §6's pair table over sk, counted over its MH run index: the
// adopted sketch's own — kept, like the index, by the first query that
// needs it, while its bound fits the memo — or one counted for this run.
func (r *run) table(sk fold.Sketch) (*rules.Table, error) {
	ix, err := r.index(candidate.Params{Algo: fold.MinHash}, sk)
	if err != nil {
		return nil, err
	}
	build := func() (*rules.Table, error) { return rules.NewTable(r.ctx, sk.MH, ix, r.workers) }
	t, err := r.kept.Table.get(r.rec, rules.TableBytes(ix), nil, build)
	if t != nil || err != nil {
		return t, err
	}
	return build()
}

// scheme is one row of the template: the phase 2 that reads the sketch
// the fold left (fold.For maps the algorithm to the fold; phase 1 is
// the same code for all of them) and the measure phase 3 prunes by.
type scheme struct {
	// generate is phase 2. tick reports its progress in the kernel's own
	// unit (columns, or rows for the schemes that scan).
	generate func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error)
	// measure is what verify admits a candidate (I, J) by, over its
	// contingency counts; nil is similarity. §6 prunes by the confidence
	// of I => J.
	measure func(measures.Counts) float64
	// exact: generate already returns exact similarities, so there is
	// nothing to verify. parallel: generate runs on the executor.
	exact, parallel bool
}

// scheme maps the run's algorithm to its phase 2. The three sketch
// schemes share one: the executor's scan of the scheme's kernel over
// the sketch's index. BPS samples through the executor too; the others
// each read the data their own way, here.
func (r *run) scheme() (scheme, error) {
	p := r.p
	switch p.Algo {
	case fold.BruteForce:
		return scheme{exact: true, generate: func(_ fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			return verify.AllPairsSource(r.ticked(tick), p.Threshold)
		}}, nil

	case fold.MinHash, fold.KMinHash, fold.MinLSH:
		s, err := candidate.SchemeFor(p, r.base.NumCols())
		if err != nil {
			return scheme{}, err
		}
		return scheme{parallel: true, generate: func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			cand, work, err := r.exec.Candidates(s, func() (*candidate.Kernel, error) {
				return r.kernel(p, sk, false)
			}, tick)
			if err != nil {
				return nil, err
			}
			r.rec.Add(s.Counter, work)
			return cand, nil
		}}, nil

	case fold.HammingLSH:
		return scheme{generate: func(_ fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			set, hst, err := hamminglsh.Candidates(r.ticked(tick), hamminglsh.Options{
				R: p.R, L: p.L, Seed: p.Seed,
			})
			if err != nil {
				return nil, err
			}
			r.rec.Add(obs.CounterBucketPairs, hst.BucketPairs)
			cand := make([]pairs.Scored, 0, set.Len())
			for _, pr := range set.Slice() {
				cand = append(cand, pairs.Scored{Pair: pr})
			}
			return cand, nil
		}}, nil

	case fold.Apriori:
		return scheme{exact: true, generate: func(_ fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			// A-priori scans twice; ticks from the second pass restart
			// at zero and the sink drops them, so progress tracks the
			// first pass and completes when the phase does.
			res, err := apriori.Mine(r.ticked(tick), apriori.Options{
				MinSupport:   r.in.MinSupport,
				MemoryBudget: r.in.Verify.Budget.Bytes,
			})
			if err != nil {
				return nil, err
			}
			return res.SimilarPairs(p.Threshold)
		}}, nil

	case fold.Rules:
		// §6's row: candidates by the extended Row-Sorting estimate over
		// the MH sketch — filtered from the table a resident sketch keeps,
		// or counted for this run — pruned by confidence. A rule travels
		// through the driver as a directed pair (I => J).
		return scheme{measure: rules.Confidence, generate: func(sk fold.Sketch, _ obs.Tick) ([]pairs.Scored, error) {
			t, err := r.table(sk)
			if err != nil {
				return nil, err
			}
			cand, err := t.Rules((1 - p.Delta) * p.Threshold)
			out := make([]pairs.Scored, len(cand))
			for i, x := range cand {
				out[i] = pairs.Scored{Pair: pairs.Pair{I: x.From, J: x.To}, Estimate: x.Estimate}
			}
			return out, err
		}}, nil

	case fold.BPS:
		return scheme{parallel: true, generate: func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			cand, bst, err := r.exec.Sample(r.ticked(tick), sk.Sup, p.BPS(r.workers))
			if err != nil {
				return nil, err
			}
			r.rec.Add(obs.CounterPairsSampled, bst.Inspected)
			r.rec.Add(obs.CounterSampleAccepts, bst.Accepts)
			addNonzero(r.rec, obs.CounterSampleDups, bst.Dups)
			addNonzero(r.rec, obs.CounterShards, bst.Shards)
			return cand, nil
		}}, nil
	}
	return scheme{}, fmt.Errorf("assocmine: unknown algorithm %d", int(p.Algo))
}

// scan appends to dst a kernel's whole output, every unit through the
// goroutine scheduler, or the run's one column: one unit, so the
// context is checked once, as Scan checks per chunk.
func (r *run) scan(k *candidate.Kernel, dst []pairs.Scored, tick obs.Tick) ([]pairs.Scored, int64, error) {
	if r.in.Column < 0 {
		return k.Scan(r.ctx, dst, r.workers, tick)
	}
	out, work, err := k.Column(dst, r.in.Column)
	if err == nil && r.ctx != nil {
		err = r.ctx.Err()
	}
	return out, work, err
}

// verify is phase 3: one exact pass under its span, by the measure.
func (r *run) verify(measure func(measures.Counts) float64, cand []pairs.Scored) ([]pairs.Scored, error) {
	out, err := phase(r, obs.PhaseVerify, func(tick obs.Tick) ([]pairs.Scored, error) {
		return r.exact(cand, measure, tick)
	})
	if err != nil {
		return nil, err
	}
	r.verified, r.falsePositives = len(out), len(cand)-len(out)
	return out, nil
}

// exact prunes cand to the pairs whose exact measure (nil: similarity)
// reaches the threshold — the executor's verify.Verify, which owns every
// kernel and budget decision — and records the pass's work. tick counts
// candidate pairs, or rows when a single reader scans for the scalar
// kernel.
func (r *run) exact(cand []pairs.Scored, measure func(measures.Counts) float64, tick obs.Tick) ([]pairs.Scored, error) {
	p := r.in.Verify
	p.Threshold, p.Measure, p.Tick, p.Workers = r.p.Threshold, measure, tick, r.workers
	out, vst, err := r.exec.Verify(r.counting, cand, p)
	if err != nil {
		return nil, err
	}
	r.ran(obs.GaugeVerifyWorkers, true)
	r.rec.Add(obs.CounterVerifyTouches, vst.Touches)
	addNonzero(r.rec, obs.CounterShards, vst.Shards)
	addNonzero(r.rec, obs.CounterSpillRuns, vst.SpillRuns)
	addNonzero(r.rec, obs.CounterSpillBytes, vst.SpillBytes)
	addNonzero(r.rec, obs.CounterPackedWords, vst.PackedWords)
	addNonzero(r.rec, obs.CounterPackedBatches, vst.PackedBatches)
	return out, nil
}

// finish is the single counter fill: passes and rows from the counted
// source (an executor that reads the data in other processes counts
// none here, so they stay absent), pair counts, and the probe's I/O
// deltas.
func (r *run) finish() {
	rec := r.rec
	if r.local {
		rec.Add(obs.CounterDataPasses, int64(r.counting.Passes))
		rec.Add(obs.CounterRowsScanned, r.counting.Rows)
	}
	rec.Add(obs.CounterCandidates, int64(r.candidates))
	rec.Add(obs.CounterPairsVerified, int64(r.verified))
	rec.Add(obs.CounterFalsePositives, int64(r.falsePositives))
	// File-backed sources expose cumulative I/O counts; the deltas across
	// the run are this run's volume and retries.
	io := readIOCounts(r.probe)
	if n := io.bytes - r.ioAtStart.bytes; n > 0 {
		rec.Add(obs.CounterBytesRead, n)
	}
	addNonzero(rec, obs.CounterIORetries, io.retries-r.ioAtStart.retries)
}

// ioCounts is a reading of a source's cumulative I/O probes; sources
// without a probe read zero.
type ioCounts struct {
	bytes, retries int64
}

func readIOCounts(src matrix.RowSource) (c ioCounts) {
	if s, ok := src.(matrix.ByteCounter); ok {
		c.bytes = s.BytesRead()
	}
	if s, ok := src.(matrix.RetryCounter); ok {
		c.retries = s.IORetries()
	}
	return c
}

// addNonzero records n only when it is nonzero, so runs that never
// stream or spill keep those counters out of their metrics entirely.
func addNonzero(rec obs.Recorder, counter string, n int64) {
	if n != 0 {
		rec.Add(counter, n)
	}
}
