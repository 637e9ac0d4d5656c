// The phase-2 contract. One parameter set (Params) carries what phase 2
// of the sketch schemes depends on, with the one defaults-and-validation
// function and the one derivation of every downstream constant; SchemeFor
// is the only place that maps an algorithm to its phase 2 (as fold.For is
// for phase 1). A kernel has two halves. IndexFor builds the half that
// depends on the finished sketch alone — the Index, read-only and
// shareable, what a resident sketch keeps across queries — and
// Index.Kernel adds the half a query owns, the cutoffs and the counter
// scratch (For is the two in a row, for a sketch used once; Index.Search
// is the kernel whose one scan a descending search replays with Step):
//
//	Units()              the range space: columns, for every scheme
//	Range(dst, lo, hi)   append the candidates of columns [lo, hi), with the work done
//	Column(dst, col)     append the candidates that contain one column
//
// over a ranger (units, span, column, fork: mhRanger, kmhRanger) whose
// forks share the index and own their scratch. Every candidate is
// attributed to one column, so ranges partition the pairs and their
// outputs only concatenate. M-LSH is Row-Sorting over its bands' keys at
// an agreement floor of one (§4.1: a pair is a candidate when one band
// agrees), so it has no kernel of its own. The goroutine scheduler
// (Scan, parallel.go) and the dist worker and coordinator only schedule
// these, so their outputs are bit-identical by construction; the
// band-at-a-time loop of ProgressiveSimilarPairs reads the M-LSH index
// band by band (Index.Band).
package candidate

import (
	"context"
	"fmt"

	"assocmine/internal/bps"
	"assocmine/internal/fold"
	"assocmine/internal/obs"
	"assocmine/internal/pairs"
)

// Params is the phase-2 parameter set: what the root Config and the dist
// Config both hold, and what the dist hello frame carries to a worker.
type Params struct {
	Algo         fold.Algo
	K, R, L      int
	SampleBudget int
	Seed         uint64
	Threshold    float64 // s*
	Delta        float64
}

// SetDefaults fills the documented defaults in for zero values — K 100,
// Delta 0.2 (§6's Rules: K 200, Delta 0.3, since confidence estimation
// needs a bigger sketch), R 5, L K/R, SampleBudget 32 — and validates
// the set. Errors carry no package prefix; the caller adds its own.
func (p *Params) SetDefaults() error {
	if p.Threshold <= 0 || p.Threshold > 1 {
		return fmt.Errorf("Threshold must be in (0,1], got %v", p.Threshold)
	}
	k, delta := 100, 0.2
	if p.Algo == fold.Rules {
		k, delta = 200, 0.3
	}
	if p.K == 0 {
		p.K = k
	}
	if p.K < 1 {
		return fmt.Errorf("K must be positive, got %d", p.K)
	}
	if p.Delta == 0 {
		p.Delta = delta
	}
	if p.Delta < 0 || p.Delta >= 1 {
		return fmt.Errorf("Delta must be in [0,1), got %v", p.Delta)
	}
	if p.R == 0 {
		p.R = 5
	}
	if p.R < 1 {
		return fmt.Errorf("R must be positive, got %d", p.R)
	}
	if p.L == 0 {
		p.L = max(p.K/p.R, 1)
	}
	if p.L < 1 {
		return fmt.Errorf("L must be positive, got %d", p.L)
	}
	if p.Algo == fold.MinLSH && p.K < p.R {
		return fmt.Errorf("MinLSH needs K >= R, got K=%d R=%d", p.K, p.R)
	}
	if p.SampleBudget == 0 {
		p.SampleBudget = 32
	}
	if p.SampleBudget < 1 {
		return fmt.Errorf("SampleBudget must be positive, got %d", p.SampleBudget)
	}
	return nil
}

// cutoff is the candidate filter of the counting schemes: (1-δ)·s*.
func (p Params) cutoff() float64 { return (1 - p.Delta) * p.Threshold }

// cascade is the K-MH filter pair of Section 3.2. The biased estimator
// under-counts for unequal column sizes, so its cutoff is generous.
func (p Params) cascade() KMHOptions {
	return KMHOptions{BiasedCutoff: p.cutoff() / 2, UnbiasedCutoff: p.cutoff()}
}

// BPS is the sampling pass's options under these parameters.
func (p Params) BPS(workers int) bps.Options {
	return bps.Options{Threshold: p.Threshold, Delta: p.Delta, Budget: p.SampleBudget, Seed: p.Seed, Workers: workers}
}

// Scheme is the part of a kernel that needs no sketch: what a scheduler
// that never holds one — the dist coordinator — splits and counts by.
type Scheme struct {
	// Counter is the obs counter the work count feeds: counter
	// increments for the counting schemes, bucket pairs for M-LSH.
	Counter string
	cols    int
	index   func(ctx context.Context, p Params, sk fold.Sketch, workers int) (*Index, error)
	// ranger builds the kernel's implementation; with search set, the one
	// whose scan emits a Search's hits.
	ranger func(p Params, ix *Index, search bool) (ranger, error)
	// admit tests a hit for a step under p: whether a kernel under p emits
	// the pair, which is then left as emitted (nil: every hit, always).
	admit func(p Params, ix *Index) func(hit *pairs.Scored) bool
}

// SchemeFor maps an algorithm to its phase 2 over cols columns. The
// schemes without a sketch (BPS samples rows; brute force, a-priori and
// H-LSH read the data) have none.
func SchemeFor(p Params, cols int) (Scheme, error) {
	switch p.Algo {
	case fold.MinHash:
		return Scheme{Counter: obs.CounterIncrements, cols: cols, index: mhIndex,
			ranger: func(p Params, ix *Index, _ bool) (ranger, error) { return ix.mhRanger(p.cutoff()) },
			admit:  mhAdmit}, nil
	case fold.KMinHash:
		return Scheme{Counter: obs.CounterIncrements, cols: cols, index: kmhIndex,
			ranger: func(p Params, ix *Index, search bool) (ranger, error) { return ix.kmhRanger(p.cascade(), search) },
			admit:  kmhAdmit}, nil
	case fold.MinLSH:
		return Scheme{Counter: obs.CounterBucketPairs, cols: cols, index: bandIndex,
			ranger: func(p Params, ix *Index, _ bool) (ranger, error) { return ix.mlshRanger(p) }}, nil
	}
	return Scheme{}, fmt.Errorf("candidate: algorithm %d has no range kernel", int(p.Algo))
}

// Units is the size of the range space: the columns.
func (s Scheme) Units() int { return s.cols }

// ranger is what a kernel implementation provides: mhRanger (MH and
// M-LSH) and kmhRanger.
type ranger interface {
	units() int
	// span appends the candidates of units [lo, hi) — a valid range — to
	// dst and returns the work this call did.
	span(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64)
	// column appends the candidates that contain col — a valid column —
	// each once, and returns the work this call did: as a set, and
	// Estimate bit for Estimate bit, what the span over every unit holds
	// of col.
	column(dst []pairs.Scored, col int) ([]pairs.Scored, int64)
	// fork returns a ranger over the same index with private scratch. It
	// reads only what no span writes, so it may run while the receiver
	// is counting.
	fork() ranger
}

// Kernel is one scheme's phase 2 over one sketch under one parameter
// set. Not safe for concurrent use — the scratch is reused across
// calls; Scan forks one ranger per goroutine, dist runs one kernel per
// process, and concurrent queries each take their own from the shared
// Index.
type Kernel struct {
	Scheme
	r  ranger
	ix *Index
}

// For builds the scheme's kernel over the sketch its fold finished:
// IndexFor then Index.Kernel, for a sketch that is used once.
func For(ctx context.Context, p Params, sk fold.Sketch, workers int) (*Kernel, error) {
	ix, err := IndexFor(ctx, p, sk, workers)
	if err != nil {
		return nil, err
	}
	return ix.Kernel(p)
}

// IndexFor builds the index of p's scheme over the sketch its fold
// finished: the part of phase 2 that is the same for every threshold
// (for M-LSH, the one of p's band layout — R, L and Seed — that it then
// Serves). workers and ctx (nil means Background) spread and cancel the
// part of the build that parallelises (the row or band sorts).
func IndexFor(ctx context.Context, p Params, sk fold.Sketch, workers int) (*Index, error) {
	s, err := SchemeFor(p, 0)
	if err != nil {
		return nil, err
	}
	ctx, workers = normWorkers(ctx, workers)
	return s.index(ctx, p, sk, workers)
}

// IndexBytes is the size of the index IndexFor builds: 12 bytes a
// signature cell, or a band and column for M-LSH.
func IndexBytes(p Params, sk fold.Sketch) int64 {
	if p.Algo == fold.MinLSH {
		return 12 * int64(p.L) * int64(sk.MH.M)
	}
	return 12 * sk.Cells()
}

// Serves reports whether the index is p's scheme's index over its
// sketch: the algorithm's, and for M-LSH the one of p's band layout.
func (ix *Index) Serves(p Params) bool {
	return p.Algo == ix.algo && (ix.algo != fold.MinLSH || p.R == ix.layout.R && p.L == ix.layout.L && p.Seed == ix.layout.Seed)
}

// Kernel is a kernel of the index's scheme under p: the cutoffs p
// derives, validated, and scratch of its own.
func (ix *Index) Kernel(p Params) (*Kernel, error) { return ix.kernel(p, false) }

// Search is the kernel of a descending search whose lowest step runs
// under floor. The count loop — the cost of a scan — reads no threshold,
// so this kernel's one Scan (or Column) finds every pair any step of the
// ladder can emit, and Step replays a step over those hits. A hit is
// private to the search: its Estimate is what the scheme's filters read
// — n/k for MH, the biased estimate from the intersection count for K-MH
// (the O(k) unbiased one is not computed), nothing for M-LSH.
func (ix *Index) Search(floor Params) (*Kernel, error) { return ix.kernel(floor, true) }

func (ix *Index) kernel(p Params, search bool) (*Kernel, error) {
	s, err := SchemeFor(p, ix.cols())
	if err != nil {
		return nil, err
	}
	if p.Algo != ix.algo {
		return nil, fmt.Errorf("candidate: index of algorithm %d cannot serve algorithm %d", int(ix.algo), int(p.Algo))
	}
	r, err := s.ranger(p, ix, search)
	if err != nil {
		return nil, err
	}
	return &Kernel{Scheme: s, r: r, ix: ix}, nil
}

// Step, on a Search kernel, moves to the front of hits — its scan's
// output less what earlier steps took — the pairs a kernel under p
// emits, as it emits them, and returns them and the rest. Thresholds must
// fall from step to step: the filters are monotone, so fresh is what p's
// kernel adds to the earlier steps'.
func (k *Kernel) Step(p Params, hits []pairs.Scored) (fresh, rest []pairs.Scored) {
	n := len(hits)
	if k.admit != nil {
		admit := k.admit(p, k.ix)
		n = 0
		for i := range hits {
			if admit(&hits[i]) {
				hits[n], hits[i] = hits[i], hits[n]
				n++
			}
		}
	}
	return hits[:n:n], hits[n:]
}

// mhAdmit is Row-Sorting's filter on a hit, n >= ceil(cutoff·k), read
// off n/k: two correctly rounded quotients of integers by the same k
// compare as the integers do.
func mhAdmit(p Params, ix *Index) func(*pairs.Scored) bool {
	k := ix.sk.MH.K
	least := float64(ceilFrac(p.cutoff(), k)) / float64(k)
	return func(h *pairs.Scored) bool { return h.Estimate >= least }
}

// kmhAdmit is the cascade on a hit: Estimate is the biased estimate,
// Exact the unbiased one from the step that computes it to the step that
// admits the pair (0: not computed yet).
func kmhAdmit(p Params, ix *Index) func(*pairs.Scored) bool {
	c, sk := p.cascade(), ix.sk.KMH
	return func(h *pairs.Scored) bool {
		if h.Estimate < c.BiasedCutoff {
			return false
		}
		if h.Exact == 0 {
			h.Exact = sk.UnbiasedEstimate(int(h.I), int(h.J))
		}
		if h.Exact < c.UnbiasedCutoff {
			return false
		}
		h.Estimate, h.Exact = h.Exact, 0
		return true
	}
}

// Range appends the candidates of columns [lo, hi) to dst and returns
// the work the range cost: counter increments or bucket pairs.
// Consecutive ranges emit, concatenated, what one range over their
// union would. This is the one range check of phase 2, whoever the
// caller.
func (k *Kernel) Range(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64, error) {
	if lo < 0 || hi > k.cols || lo > hi {
		return dst, 0, fmt.Errorf("candidate: unit range [%d,%d) outside [0,%d)", lo, hi, k.cols)
	}
	dst, work := k.r.span(dst, lo, hi)
	return dst, work, nil
}

// Column appends to dst the candidates that contain column col, each
// once, and returns the work that cost: the full scan filtered on col —
// equal as a set, Estimate bit for Estimate bit — from col's own runs
// instead of everybody's. It is the unit of a one-column query, as Range is of
// an all-pairs one, and the one column check of phase 2.
func (k *Kernel) Column(dst []pairs.Scored, col int) ([]pairs.Scored, int64, error) {
	if col < 0 || col >= k.cols {
		return dst, 0, fmt.Errorf("candidate: column %d outside [0,%d)", col, k.cols)
	}
	dst, work := k.r.column(dst, col)
	return dst, work, nil
}
