package driver

import (
	"sync"

	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/matrix"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
	"assocmine/internal/rules"
	"assocmine/internal/verify"
)

// Executor runs each phase's partitionable body; the driver sequences
// the phases, brackets them with spans and records their work. Each
// body has partitions that reproduce the whole exactly, so every
// executor returns the local one's pairs bit for bit, and its work:
//
//   - Fold: row ranges, each folded into a fresh state of f, merged with
//     the fold's exact Merge.
//   - Candidates: column ranges of the scheme's kernel (kernel builds it
//     over the sketch), concatenated; work is the kernel's count.
//   - Sample: row ranges tallied with bps.SampleCounts against the
//     global supports, merged with bps.MergeCounts and finished with
//     bps.FinalizeCounts.
//   - Verify: candidate ranges, each through verify.Verify under p.
//
// rows is the run's counted view of the data. What depends on the
// partition — shards, packed words and batches, passes and rows — is
// the executor's own.
type Executor interface {
	Fold(f fold.Fold, p candidate.Params, rows matrix.RowSource) (fold.Sketch, error)
	Candidates(s candidate.Scheme, kernel func() (*candidate.Kernel, error), tick obs.Tick) ([]pairs.Scored, int64, error)
	Sample(rows matrix.RowSource, sup []int64, opt bps.Options) ([]pairs.Scored, bps.Stats, error)
	Verify(rows matrix.RowSource, cand []pairs.Scored, p verify.Params) ([]pairs.Scored, verify.Stats, error)
}

// local is the single-process Executor: each body on the run's
// goroutines, over the cheapest view of the data.
type local struct{ r *run }

// Fold runs the fold's column kernel when the data is in memory
// column-major (not windowed — RangeSource hides the lists) and the fold
// says that path is the faster one, with the pass accounted by hand;
// otherwise a fresh state + fold.FoldStream + Finish for every source
// and worker count. At one worker FoldStream is a direct Scan into
// FoldRow — no shard copy, no shard count; above, the pass is dealt to
// per-worker states and merged exactly, at O(workers) states.
func (l local) Fold(f fold.Fold, p candidate.Params, rows matrix.RowSource) (fold.Sketch, error) {
	r := l.r
	workers := r.workers
	if f.Serial {
		workers = 1
	}
	if ls, ok := r.base.(matrix.ColumnLister); ok && f.Columns != nil {
		if sk, done, err := f.Columns(ls, p.K, p.Seed, workers); done || err != nil {
			r.countPass()
			return sk, err
		}
	}
	st, err := f.New(rows.NumCols(), p.K, p.Seed)
	if err != nil {
		return fold.Sketch{}, err
	}
	shards, err := fold.FoldStream(rows, st, workers)
	if err != nil {
		return fold.Sketch{}, err
	}
	addNonzero(r.rec, obs.CounterShards, shards)
	return st.Finish(), nil
}

// Candidates is the kernel's goroutine scheduler, Kernel.Scan, or the
// run's one column.
func (l local) Candidates(_ candidate.Scheme, kernel func() (*candidate.Kernel, error), tick obs.Tick) ([]pairs.Scored, int64, error) {
	k, err := kernel()
	if err != nil {
		return nil, 0, err
	}
	return l.r.scan(k, nil, tick)
}

// Sample is bps.Sample: one pass dealt to opt.Workers samplers.
func (l local) Sample(rows matrix.RowSource, sup []int64, opt bps.Options) ([]pairs.Scored, bps.Stats, error) {
	return bps.Sample(rows, sup, opt)
}

// Verify is verify.Verify over the view of the data the pass reads:
//
//   - In-memory runs skip the counted stream and account their pass by
//     hand whenever the kernel does not spill: the packed kernel packs
//     straight from the column lists, with or without a budget, and
//     above one worker the unbudgeted scalar kernel lets each worker
//     scan concurrently, which beats fanning a stream out.
//   - Everything else, the spilling kernel included, reads the counted
//     single-reader pass: a bounded table plus spills is the point;
//     concurrent scans would multiply it.
func (l local) Verify(rows matrix.RowSource, cand []pairs.Scored, p verify.Params) ([]pairs.Scored, verify.Stats, error) {
	r := l.r
	base := r.base
	if len(cand) > 0 && matrix.CanScanConcurrently(base) &&
		(p.Budget.Bytes <= 0 || verify.AutoPack(base.NumRows(), base.NumCols(), cand, p.Budget.Bytes)) {
		rows = matrix.WithContext(p.Context, base)
		r.countPass()
	}
	return verify.Verify(rows, cand, p)
}

// Adopted is a caller's precomputed sketch, taken in place of the
// phase-1 fold, with the memos of what lives and dies with it: the
// phase-2 index of the query's scheme (for M-LSH the buckets of one
// band layout), for a rules run §6's pair table, and for a K-MH sketch
// the Counts its scans read.
type Adopted struct {
	fold.Sketch
	Index  *Memo[*candidate.Index]
	Table  *Memo[*rules.Table]
	Counts *Memo[*candidate.Counts]
}

// Memo is one structure a resident sketch keeps beside itself: built by
// the first query that needs it — under the lock, so concurrent first
// queries build it once — and kept, one value at a time, for as long as
// the sketch object is. A failed (cancelled) build memoises nothing; the
// next query builds.
type Memo[T comparable] struct {
	mu sync.Mutex
	// Kept is the value kept (the zero T: none), to be read while no
	// query runs; a value of more than Limit bytes is not built (0: any
	// is).
	Kept  T
	Limit int64
}

// get returns the kept value, of size bytes, when ok accepts it (nil:
// any), else builds one, which replaces it, and counts the build; rec
// hears the resident size. When size exceeds the limit, or the memo is
// nil (no resident sketch), it returns the zero T: the caller answers
// without.
func (m *Memo[T]) get(rec obs.Recorder, size int64, ok func(T) bool, build func() (T, error)) (T, error) {
	var zero T
	if m == nil {
		return zero, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Kept == zero || ok != nil && !ok(m.Kept) {
		if m.Limit > 0 && size > m.Limit {
			return zero, nil
		}
		v, err := build()
		if err != nil {
			return zero, err
		}
		m.Kept = v
		rec.Add(obs.CounterIndexBuilds, 1)
	}
	rec.SetGauge(obs.GaugeIndexBytes, size)
	return m.Kept, nil
}

// progressSink funnels obs.Tick callbacks — possibly concurrent and
// out of order, coming from worker goroutines — into the run's
// ProgressFunc, serialising calls and enforcing per-phase monotonicity.
// A nil sink (progress disabled) hands out nil ticks, so the phases pay
// nothing.
type progressSink struct {
	mu          sync.Mutex
	fn          obs.ProgressFunc
	phase       string
	last, total int64
}

// enter starts a phase and returns the Tick its workers should use.
func (p *progressSink) enter(phase string) obs.Tick {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.phase, p.last, p.total = phase, -1, 0
	p.mu.Unlock()
	return func(done, total int64) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.phase == phase && done > p.last {
			p.last, p.total = done, total
			p.fn(phase, done, total)
		}
	}
}

// finish reports phase completion (done == total) unless the last tick
// already did. Phases without fine-grained hooks report (1, 1).
func (p *progressSink) finish(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.phase != phase {
		return
	}
	if p.total = max(p.total, 1); p.last < p.total {
		p.last = p.total
		p.fn(phase, p.total, p.total)
	}
}
