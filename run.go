package assocmine

import (
	"fmt"
	"sync"
	"time"

	"assocmine/internal/apriori"
	"assocmine/internal/bps"
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

// run is the one driver of the paper's three-phase template (§2). Every
// single-process entry point — SimilarPairs, FileDataset.SimilarPairs,
// the queries answered from a Resident sketch, the three MineRules and
// the signature phase and accounting of ProgressiveSimilarPairs — builds
// one and walks the same four steps:
//
//	sketch      phase 1: fold the source, or adopt a precomputed sketch
//	            and the phase-2 index it carries
//	candidates  phase 2: the scheme's in-memory kernel over the index —
//	            every unit of it, or the one column a query names
//	verify      phase 3: one exact pass pruning the candidates by the
//	            scheme's measure — similarity unless it names another
//	finish      pass, I/O and pair counters into Stats and the Recorder
//
// The run owns the recorder, the progress sink, the counted source and
// the Stats, so what a run reports cannot depend on which entry point
// or which worker count reached a step.
type run struct {
	cfg   Config // defaults applied
	st    Stats
	inner *obs.Collector // feeds Stats.fillFrom
	rec   obs.Recorder   // inner teed with cfg.Recorder
	prog  *progressSink

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
	materialize func() (*matrix.Matrix, error)

	// kept is the adopted sketch with its memos; empty when the run folds
	// its own sketch and drops what it builds over it. column, when >= 0,
	// restricts phase 2 of a sketch scheme to the candidates containing
	// that column (TopColumnsWith): one unit of work, not one per column.
	kept   adopted
	column int

	ioAtStart ioCounts
	// Raw-equivalent and compressed spill volume, priced by the budgeted
	// pass; they feed the codec ratio alongside the file-read deltas.
	spillRaw, spillCompressed int64
}

func newRun(src matrix.RowSource, materialize func() (*matrix.Matrix, error), cfg Config) *run {
	r := &run{
		cfg:         cfg,
		st:          Stats{Algorithm: cfg.Algorithm, SignatureWorkers: 1, CandidateWorkers: 1, VerifyWorkers: 1},
		inner:       obs.NewCollector(),
		prog:        newProgressSink(cfg.Progress),
		probe:       src,
		base:        src,
		materialize: materialize,
		column:      -1,
		ioAtStart:   readIOCounts(src),
	}
	r.rec = obs.Tee(r.inner, cfg.Recorder)
	if from := src.NumRows() - cfg.Window; cfg.Window > 0 && from > 0 {
		r.base = &matrix.RangeSource{Src: src, From: from, To: src.NumRows()}
	}
	r.counting = &matrix.CountingSource{Src: matrix.WithContext(cfg.Context, r.base)}
	return r
}

// run starts a driver over the in-memory dataset.
func (d *Dataset) run(cfg Config) *run {
	return newRun(d.m.Stream(), func() (*matrix.Matrix, error) { return d.m, nil }, cfg)
}

// scheme is one row of the template: the phase 2 that reads the sketch
// the fold left (internal/fold maps the algorithm to the fold; phase 1
// is the same code for all of them) and the measure phase 3 prunes by.
type scheme struct {
	// generate is phase 2. tick reports its progress in the kernel's own
	// unit (columns, bands, or rows for the schemes that scan).
	generate func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error)
	// measure is what run.exact admits a candidate (I, J) by, over its
	// contingency counts; nil is similarity. §6 prunes by the confidence
	// of I => J.
	measure func(measures.Counts) float64
	// exact: generate already returns exact similarities, so there is
	// nothing to verify. serial: generate ignores Config.Workers.
	exact, serial bool
}

// adopted is a caller's precomputed sketch, taken in place of the
// phase-1 fold, with the memos of what lives and dies with it: the
// phase-2 index of the query's scheme (for M-LSH the buckets of one
// band layout) and, for a rules run, §6's triangle.
type adopted struct {
	fold.Sketch
	index    *memo[*candidate.Index]
	triangle *memo[*rules.Triangle]
}

// memoLimit bounds what a resident sketch keeps beside its run index: a
// larger structure is not built to be kept, and every query runs what a
// one-shot run does. 64 MiB is §6's triangle up to 3 344 columns and the
// buckets of a 40-band layout up to 139 810.
const memoLimit = 64 << 20

// memo is one structure a resident sketch keeps beside itself: built by
// the first query that needs it — under the lock, so concurrent first
// queries build it once — and kept, one value at a time, for as long as
// the sketch object is. A failed (cancelled) build memoises nothing; the
// next query builds.
type memo[T comparable] struct {
	mu    sync.Mutex
	v     T
	limit int64 // a value of more bytes is not built; 0: any is
}

// get returns the kept value, of size bytes, when ok accepts it (nil:
// any), else builds one, which replaces it, and counts the build; rec
// hears the resident size. When size exceeds the limit, or the memo is
// nil (no resident sketch), it returns the zero T: the caller answers
// without.
func (m *memo[T]) get(rec obs.Recorder, size int64, ok func(T) bool, build func() (T, error)) (T, error) {
	var zero T
	if m == nil {
		return zero, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.v == zero || ok != nil && !ok(m.v) {
		if m.limit > 0 && size > m.limit {
			return zero, nil
		}
		v, err := build()
		if err != nil {
			return zero, err
		}
		m.v = v
		rec.Add(obs.CounterIndexBuilds, 1)
	}
	rec.SetGauge(obs.GaugeIndexBytes, size)
	return m.v, nil
}

// similar is a similar-pairs run: the configured algorithm's scheme
// through the four steps, its pairs by decreasing similarity.
func (r *run) similar(pre *adopted) (*Result, error) {
	sch, err := r.scheme()
	if err != nil {
		return nil, err
	}
	ps, err := r.mine(sch, pre)
	if err != nil {
		return nil, err
	}
	return r.result(ps, sch.exact || !r.cfg.SkipVerify), nil
}

// mine runs the four steps over sch and returns the pairs that are
// left. pre, when non-nil, is a caller-supplied sketch adopted, with
// its index, in place of the phase-1 fold.
func (r *run) mine(sch scheme, pre *adopted) ([]pairs.Scored, error) {
	sk, err := r.sketch(pre)
	if err != nil {
		return nil, err
	}
	ps, err := r.candidates(sch, sk)
	if err == nil && !sch.exact && !r.cfg.SkipVerify {
		ps, err = r.verify(sch, ps)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	return ps, nil
}

// phase brackets one phase with its recorder span and progress window
// and returns, with the body's result, its wall time — the exact value
// Stats records for it.
func phase[T any](r *run, name string, body func(tick obs.Tick) (T, error)) (T, time.Duration, error) {
	tick := r.prog.enter(name)
	r.rec.PhaseStart(name)
	start := time.Now()
	out, err := body(tick)
	if err != nil {
		return out, 0, err
	}
	d := time.Since(start)
	r.rec.PhaseEnd(name, d)
	r.prog.finish(name)
	return out, d, nil
}

// ticked is the counted source reporting row progress to tick: the
// view a phase's single sequential reader scans.
func (r *run) ticked(tick obs.Tick) matrix.RowSource {
	if tick == nil {
		return r.counting
	}
	return &matrix.ProgressSource{Src: r.counting, Tick: tick}
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
func (r *run) sketch(pre *adopted) (fold.Sketch, error) {
	if pre != nil {
		r.rec.SetGauge(obs.GaugeSignatureBytes, pre.Cells()*8)
		r.kept = *pre
		return pre.Sketch, nil
	}
	f, ok := fold.For(fold.Algo(r.cfg.Algorithm))
	if !ok {
		return fold.Sketch{}, nil
	}
	sk, d, err := phase(r, PhaseSignatures, func(tick obs.Tick) (fold.Sketch, error) {
		return r.fold(f, r.ticked(tick))
	})
	if err != nil {
		return fold.Sketch{}, err
	}
	cells := sk.Cells()
	r.st.SignatureTime = d
	r.rec.Add(obs.CounterSignatureCells, cells)
	r.rec.SetGauge(obs.GaugeSignatureBytes, cells*8)
	return sk, nil
}

// fold is phase 1 for every fold: its column kernel when the data is
// in memory column-major (not windowed — RangeSource hides the lists)
// and the fold says that path is the faster one, with the pass
// accounted by hand and progress completing in one step; otherwise a
// fresh state + fold.FoldStream + Finish for every source and worker
// count. At one worker FoldStream is a direct Scan into FoldRow — no
// shard copy, no shard count; above, the pass is dealt to per-worker
// states and merged exactly, at O(workers) states.
func (r *run) fold(f fold.Fold, src matrix.RowSource) (fold.Sketch, error) {
	workers := r.cfg.Workers
	if f.Serial {
		workers = 1
	}
	if ls, ok := r.base.(matrix.ColumnLister); ok && f.Columns != nil {
		if sk, done, err := f.Columns(ls, r.cfg.K, r.cfg.Seed, workers); done || err != nil {
			if err != nil {
				return fold.Sketch{}, err
			}
			r.countPass()
			r.folded(f, 0)
			return sk, nil
		}
	}
	st, err := f.New(src.NumCols(), r.cfg.K, r.cfg.Seed)
	if err != nil {
		return fold.Sketch{}, err
	}
	shards, err := fold.FoldStream(src, st, workers)
	if err != nil {
		return fold.Sketch{}, err
	}
	r.folded(f, shards)
	return st.Finish(), nil
}

// folded records a parallelisable fold's worker budget and the shards
// it dealt; a serial fold reports neither.
func (r *run) folded(f fold.Fold, shards int64) {
	if f.Serial {
		return
	}
	r.st.SignatureWorkers = r.cfg.Workers
	r.rec.SetGauge(obs.GaugeSignatureWorkers, int64(r.cfg.Workers))
	addNonzero(r.rec, obs.CounterShards, shards)
}

// index is the phase-2 index over sk: the adopted sketch's own — built
// by the first query that needs it, counted once, its resident size
// reported by every query that uses it — or one built for this run and
// dropped with its sketch.
func (r *run) index(sk fold.Sketch) (*candidate.Index, error) {
	p := r.cfg.params()
	build := func(keep bool) (*candidate.Index, error) {
		return candidate.IndexFor(r.cfg.Context, p, sk, r.cfg.Workers, keep)
	}
	ix, err := r.kept.index.get(r.rec, candidate.IndexBytes(p, sk),
		func(ix *candidate.Index) bool { return ix.Serves(p) },
		func() (*candidate.Index, error) { return build(true) })
	if ix != nil || err != nil {
		return ix, err
	}
	return build(false)
}

// scan is a kernel's whole output, appended to dst: every unit of it
// through the goroutine scheduler, or the run's one column.
func (r *run) scan(k *candidate.Kernel, dst []pairs.Scored, tick obs.Tick) ([]pairs.Scored, error) {
	var cand []pairs.Scored
	var work int64
	var err error
	if r.column < 0 {
		cand, work, err = k.Scan(r.cfg.Context, dst, r.cfg.Workers, tick)
	} else if cand, work, err = k.Column(dst, r.column); err == nil && r.cfg.Context != nil {
		err = r.cfg.Context.Err() // a column is one unit: checked once, as Scan checks per chunk
	}
	if err != nil {
		return nil, err
	}
	r.rec.Add(k.Counter, work)
	return cand, nil
}

// scheme maps the configured algorithm to its phase 2. The three sketch
// schemes share one: a kernel of the scheme under this run's parameters
// over the sketch's index, scanned by the goroutine scheduler — or
// asked for the run's one column. The others each read the data their
// own way.
func (r *run) scheme() (scheme, error) {
	cfg := r.cfg
	switch cfg.Algorithm {
	case BruteForce:
		return scheme{exact: true, serial: true, generate: func(_ fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			return verify.AllPairsSource(r.ticked(tick), cfg.Threshold)
		}}, nil

	case MinHash, KMinHash, MinLSH:
		return scheme{generate: func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			ix, err := r.index(sk)
			if err != nil {
				return nil, err
			}
			k, err := ix.Kernel(cfg.params())
			if err != nil {
				return nil, err
			}
			return r.scan(k, nil, tick)
		}}, nil

	case HammingLSH:
		// The fold ladder is a whole-data structure: the one scheme that
		// materialises a streamed source.
		return scheme{serial: true, generate: func(fold.Sketch, obs.Tick) ([]pairs.Scored, error) {
			full, err := r.materialize()
			if err != nil {
				return nil, err
			}
			set, hst, err := hamminglsh.Candidates(full, hamminglsh.Options{
				R: cfg.R, L: cfg.L, T: cfg.T, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			r.rec.Add(obs.CounterBucketPairs, hst.BucketPairs)
			cand := make([]pairs.Scored, 0, set.Len())
			for _, p := range set.Slice() {
				cand = append(cand, pairs.Scored{Pair: p})
			}
			return cand, nil
		}}, nil

	case Apriori:
		return scheme{exact: true, serial: true, generate: func(_ fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			// A-priori scans once per level; ticks from later passes
			// restart at zero and the sink drops them, so progress
			// tracks the first pass and completes when the phase does.
			res, err := apriori.Mine(r.ticked(tick), apriori.Options{
				MinSupport:   cfg.MinSupport,
				MaxLevel:     2,
				MemoryBudget: cfg.AprioriMemoryBudget,
			})
			if err != nil {
				return nil, err
			}
			return res.SimilarPairs(cfg.Threshold)
		}}, nil

	case BPS:
		return scheme{generate: func(sk fold.Sketch, tick obs.Tick) ([]pairs.Scored, error) {
			cand, bst, err := bps.Sample(r.ticked(tick), sk.Sup, cfg.params().BPS(cfg.Workers))
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
	return scheme{}, fmt.Errorf("assocmine: unknown algorithm %d", int(cfg.Algorithm))
}

// candidates is phase 2: the scheme's kernel over the sketch.
func (r *run) candidates(sch scheme, sk fold.Sketch) ([]pairs.Scored, error) {
	cand, d, err := phase(r, PhaseCandidates, func(tick obs.Tick) ([]pairs.Scored, error) {
		return sch.generate(sk, tick)
	})
	if err != nil {
		return nil, err
	}
	r.st.CandidateTime, r.st.Candidates = d, len(cand)
	if sch.exact {
		r.st.Verified = len(cand)
	}
	if !sch.serial {
		r.st.CandidateWorkers = r.cfg.Workers
		r.rec.SetGauge(obs.GaugeCandidateWorkers, int64(r.cfg.Workers))
	}
	return cand, nil
}

// verify is phase 3: one exact pass under its span, by the scheme's
// measure.
func (r *run) verify(sch scheme, cand []pairs.Scored) ([]pairs.Scored, error) {
	out, d, err := phase(r, PhaseVerify, func(tick obs.Tick) ([]pairs.Scored, error) {
		return r.exact(cand, sch.measure, tick)
	})
	if err != nil {
		return nil, err
	}
	r.st.VerifyTime, r.st.VerifyWorkers = d, r.cfg.Workers
	r.st.Verified, r.st.FalsePositives = len(out), len(cand)-len(out)
	r.rec.SetGauge(obs.GaugeVerifyWorkers, int64(r.cfg.Workers))
	return out, nil
}

// exact prunes cand to the pairs whose exact measure (nil: similarity)
// reaches the threshold — verify.Verify, which owns every kernel and
// budget decision — and records the pass's work. What belongs to the
// run is the view of the data the pass reads:
//
//   - Unbudgeted in-memory runs skip the counted stream and account
//     their pass by hand: the packed kernel packs straight from the
//     column lists, and above one worker the scalar kernel lets each
//     worker scan concurrently, which beats fanning a stream out.
//   - Everything else, a memory budget included, reads the counted
//     single-reader pass: a bounded table plus spills is the point;
//     concurrent scans would multiply it.
//
// tick counts candidate pairs, or rows when a single reader scans for
// the scalar kernel.
func (r *run) exact(cand []pairs.Scored, measure func(measures.Counts) float64, tick obs.Tick) ([]pairs.Scored, error) {
	cfg := r.cfg
	src := matrix.RowSource(r.counting)
	if cfg.MemoryBudget <= 0 && len(cand) > 0 && matrix.CanScanConcurrently(r.base) {
		src = matrix.WithContext(cfg.Context, r.base)
		r.countPass()
	}
	out, vst, err := verify.Verify(src, cand, verify.Params{
		Threshold: cfg.Threshold,
		Measure:   measure,
		Kernel:    cfg.VerifyKernel,
		Budget:    verify.Budget{Bytes: cfg.MemoryBudget, Dir: cfg.SpillDir},
		Workers:   cfg.Workers,
		Context:   cfg.Context,
		Tick:      tick,
	})
	if err != nil {
		return nil, err
	}
	r.rec.Add(obs.CounterVerifyTouches, vst.Touches)
	addNonzero(r.rec, obs.CounterShards, vst.Shards)
	addNonzero(r.rec, obs.CounterSpillRuns, vst.SpillRuns)
	addNonzero(r.rec, obs.CounterSpillBytes, vst.SpillBytes)
	addNonzero(r.rec, obs.CounterSpillBytesCompressed, vst.SpillBytesCompressed)
	addNonzero(r.rec, obs.CounterPackedWords, vst.PackedWords)
	addNonzero(r.rec, obs.CounterPackedBatches, vst.PackedBatches)
	r.spillRaw += vst.SpillBytesRaw
	r.spillCompressed += vst.SpillBytesCompressed
	return out, nil
}

// finish is the single Stats and counter fill: passes and rows from the
// counted source, pair counts, the probe's I/O deltas and the codec
// ratio, then Stats from the run's own collector so it agrees with any
// attached Recorder exactly.
func (r *run) finish() {
	st, rec := &r.st, r.rec
	st.DataPasses = r.counting.Passes
	st.RowsScanned = r.counting.Rows
	rec.Add(obs.CounterDataPasses, int64(st.DataPasses))
	rec.Add(obs.CounterRowsScanned, st.RowsScanned)
	rec.Add(obs.CounterCandidates, int64(st.Candidates))
	rec.Add(obs.CounterPairsVerified, int64(st.Verified))
	rec.Add(obs.CounterFalsePositives, int64(st.FalsePositives))
	// File-backed sources expose cumulative I/O counts; the deltas across
	// the run are this run's volume, retries and injected faults.
	io := readIOCounts(r.probe)
	if n := io.bytes - r.ioAtStart.bytes; n > 0 {
		rec.Add(obs.CounterBytesRead, n)
	}
	addNonzero(rec, obs.CounterIORetries, io.retries-r.ioAtStart.retries)
	addNonzero(rec, obs.CounterFaultsInjected, io.faults-r.ioAtStart.faults)
	compressedRead := io.compressed - r.ioAtStart.compressed
	addNonzero(rec, obs.CounterCompressedBytesRead, compressedRead)
	if moved := compressedRead + r.spillCompressed; moved > 0 {
		ratio := float64(io.logical-r.ioAtStart.logical+r.spillRaw) / float64(moved)
		rec.SetGauge(obs.GaugeCodecRatio, int64(ratio*100))
	}
	st.fillFrom(r.inner)
}

// result is a finished run's pairs, by decreasing similarity, beside
// its Stats. verified: ps carry exact similarities.
func (r *run) result(ps []pairs.Scored, verified bool) *Result {
	pairs.SortScored(ps)
	return &Result{Pairs: toPairs(ps, verified), Stats: r.st}
}

// ioCounts is a reading of a source's cumulative I/O probes; sources
// without a probe read zero.
type ioCounts struct {
	bytes, retries, faults, compressed, logical int64
}

func readIOCounts(src matrix.RowSource) (c ioCounts) {
	if s, ok := src.(matrix.ByteCounter); ok {
		c.bytes = s.BytesRead()
	}
	if s, ok := src.(matrix.RetryCounter); ok {
		c.retries = s.IORetries()
	}
	if s, ok := src.(matrix.FaultCounter); ok {
		c.faults = s.FaultsInjected()
	}
	if s, ok := src.(matrix.CodecCounter); ok {
		c.compressed = s.CompressedBytesRead()
		c.logical = s.LogicalBytesRead()
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

// fillFrom copies the counters the run recorded into the extended Stats
// fields, keeping Stats and any attached Recorder in exact agreement.
func (s *Stats) fillFrom(c *Collector) {
	s.SignatureCells = c.Counter(CounterSignatureCells)
	s.SignatureBytes = c.Gauge(GaugeSignatureBytes)
	s.CandidateIncrements = c.Counter(CounterIncrements)
	s.BucketPairs = c.Counter(CounterBucketPairs)
	s.VerifyTouches = c.Counter(CounterVerifyTouches)
	s.BytesRead = c.Counter(CounterBytesRead)
	s.ShardsStreamed = c.Counter(CounterShards)
	s.SpillRuns = c.Counter(CounterSpillRuns)
	s.SpillBytes = c.Counter(CounterSpillBytes)
	s.CompressedBytesRead = c.Counter(CounterCompressedBytesRead)
	s.SpillBytesCompressed = c.Counter(CounterSpillBytesCompressed)
	s.CodecRatio = float64(c.Gauge(GaugeCodecRatio)) / 100
	s.IORetries = c.Counter(CounterIORetries)
	s.FaultsInjected = c.Counter(CounterFaultsInjected)
	s.PackedWords = c.Counter(CounterPackedWords)
	s.PackedBatches = c.Counter(CounterPackedBatches)
	s.PairsSampled = c.Counter(CounterPairsSampled)
	s.SampleAccepts = c.Counter(CounterSampleAccepts)
	s.SampleDups = c.Counter(CounterSampleDups)
}

func toPairs(ps []pairs.Scored, verified bool) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate}
		if verified {
			out[i].Similarity = p.Exact
		}
	}
	return out
}
