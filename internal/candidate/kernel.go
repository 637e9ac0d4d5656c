// The phase-2 contract. One parameter set (Params) carries what phase 2
// of the sketch schemes depends on, with the one defaults-and-validation
// function and the one derivation of every downstream constant; SchemeFor
// is the only place that maps an algorithm to its phase 2 (as fold.For is
// for phase 1). A kernel has two halves. IndexFor builds the half that
// depends on the finished sketch alone — the Index, read-only and
// shareable, what a resident sketch keeps across queries — and
// Index.Kernel adds the half a query owns, the cutoffs and the counter
// scratch (For is the two in a row, for a sketch used once):
//
//	Units()              the range space: columns (MH, K-MH) or bands (M-LSH)
//	Range(dst, lo, hi)   append the candidates of units [lo, hi), with the work done
//	Column(dst, col)     append the candidates that contain one column
//	Gatherer()           the rule for putting range outputs together
//
// over a ranger (units, span, column, fork: mhRanger, kmhRanger,
// lsh.Bands) whose forks share the index and own their scratch. The
// goroutine scheduler (Scan, parallel.go), the band-at-a-time loop of
// ProgressiveSimilarPairs and the dist worker and coordinator only
// schedule these, so their outputs are bit-identical by construction.
package candidate

import (
	"context"
	"fmt"

	"assocmine/internal/bps"
	"assocmine/internal/fold"
	"assocmine/internal/lsh"
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
// Delta 0.2, R 5, L K/R, SampleBudget 32 — and validates the set. Errors
// carry no package prefix; the caller adds its own.
func (p *Params) SetDefaults() error {
	if p.Threshold <= 0 || p.Threshold > 1 {
		return fmt.Errorf("Threshold must be in (0,1], got %v", p.Threshold)
	}
	if p.K == 0 {
		p.K = 100
	}
	if p.K < 1 {
		return fmt.Errorf("K must be positive, got %d", p.K)
	}
	if p.Delta == 0 {
		p.Delta = 0.2
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
// that never holds one — the dist coordinator — splits, counts and
// combines by.
type Scheme struct {
	// Counter is the obs counter the work count feeds: counter
	// increments for the counting schemes, bucket pairs for M-LSH.
	Counter string
	units   int
	cols    int
	chunk   int  // units the goroutine scheduler hands out at a time
	overlap bool // ranges can repeat a pair
	index   func(ctx context.Context, sk fold.Sketch, workers int) (*Index, error)
	ranger  func(p Params, ix *Index) (ranger, error)
}

// SchemeFor maps an algorithm to its phase 2 over cols columns. The
// schemes without a sketch (BPS samples rows; brute force, a-priori and
// H-LSH read the data) have none.
func SchemeFor(p Params, cols int) (Scheme, error) {
	switch p.Algo {
	case fold.MinHash:
		return Scheme{Counter: obs.CounterIncrements, units: cols, cols: cols, chunk: colChunk, index: mhIndex,
			ranger: func(p Params, ix *Index) (ranger, error) { return ix.mhRanger(p.cutoff(), false) }}, nil
	case fold.KMinHash:
		return Scheme{Counter: obs.CounterIncrements, units: cols, cols: cols, chunk: colChunk, index: kmhIndex,
			ranger: func(p Params, ix *Index) (ranger, error) { return ix.kmhRanger(p.cascade()) }}, nil
	case fold.MinLSH:
		return Scheme{Counter: obs.CounterBucketPairs, units: p.L, cols: cols, chunk: 1, overlap: true, index: bandIndex, ranger: buildBands}, nil
	}
	return Scheme{}, fmt.Errorf("candidate: algorithm %d has no range kernel", int(p.Algo))
}

// Units is the size of the range space.
func (s Scheme) Units() int { return s.units }

// Gatherer is the one rule for putting range outputs together, a part
// at a time. Column ranges own disjoint pairs — a candidate is attributed
// to exactly one column — so they only concatenate, which in range order
// is the full scan's emission order. Band ranges union with exact dedup,
// each pair staying where it first appeared, which in band order is the
// serial banding's insertion order.
type Gatherer struct {
	seen *pairs.Set // nil: ranges cannot repeat a pair
}

// Gatherer returns an empty gatherer for the scheme's ranges.
func (s Scheme) Gatherer() Gatherer {
	if !s.overlap {
		return Gatherer{}
	}
	return Gatherer{seen: pairs.NewSet(1024)}
}

// Add appends to out the pairs of part that no earlier part held and
// returns it. part may be the tail of out's own array — out[:n] and
// out[n:] — which combines a range's output where it was appended.
func (g Gatherer) Add(out, part []pairs.Scored) []pairs.Scored {
	if g.seen == nil {
		return append(out, part...)
	}
	for _, p := range part {
		if g.seen.Add(p.I, p.J) {
			out = append(out, p)
		}
	}
	return out
}

// ranger is what a kernel implementation provides: mhRanger, kmhRanger
// and the lsh.Bands adapter.
type ranger interface {
	units() int
	// span appends the candidates of units [lo, hi) — a valid range — to
	// dst and returns the work this call did.
	span(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64)
	// column appends the candidates that contain col — a valid column —
	// each once, and returns the work this call did: as a set, and
	// Estimate bit for Estimate bit, what the gathered span over every
	// unit holds of col.
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
	r ranger
}

// For builds the scheme's kernel over the sketch its fold finished:
// IndexFor then Index.Kernel, for a sketch that is used once.
func For(ctx context.Context, p Params, sk fold.Sketch, workers int) (*Kernel, error) {
	ix, err := IndexFor(ctx, p.Algo, sk, workers)
	if err != nil {
		return nil, err
	}
	return ix.Kernel(p)
}

// IndexFor builds the index of algo's phase 2 over the sketch its fold
// finished: the O(sketch) part of phase 2, the same for every query.
// workers and ctx (nil means Background) spread and cancel the part of
// the build that parallelises (the MH row sorts).
func IndexFor(ctx context.Context, algo fold.Algo, sk fold.Sketch, workers int) (*Index, error) {
	s, err := SchemeFor(Params{Algo: algo}, 0)
	if err != nil {
		return nil, err
	}
	ctx, workers = normWorkers(ctx, workers)
	return s.index(ctx, sk, workers)
}

// Kernel is a kernel of the index's scheme under p: the cutoffs p
// derives, validated, and scratch of its own.
func (ix *Index) Kernel(p Params) (*Kernel, error) {
	s, err := SchemeFor(p, ix.cols())
	if err != nil {
		return nil, err
	}
	if p.Algo != ix.algo {
		return nil, fmt.Errorf("candidate: index of algorithm %d cannot serve algorithm %d", int(ix.algo), int(p.Algo))
	}
	r, err := s.ranger(p, ix)
	if err != nil {
		return nil, err
	}
	return &Kernel{Scheme: s, r: r}, nil
}

// bandIndex is M-LSH's index: banding sorts each band as it hashes it,
// so there is nothing to keep but the signatures.
func bandIndex(_ context.Context, sk fold.Sketch, _ int) (*Index, error) {
	if sk.MH == nil {
		return nil, fmt.Errorf("candidate: M-LSH kernel needs MH signatures")
	}
	return &Index{algo: fold.MinLSH, sk: fold.Sketch{MH: sk.MH}}, nil
}

// buildBands picks the band layout: disjoint bands when the sketch has
// the r·l values they need, else the sampled Q_{r,l,k} layout, drawn at
// Seed+1 so it is independent of the hash functions Seed drew.
func buildBands(p Params, ix *Index) (ranger, error) {
	sig := ix.sk.MH
	var b *lsh.Bands
	var err error
	if sig.K >= p.R*p.L {
		b, err = lsh.Disjoint(sig, p.R, p.L)
	} else {
		b, err = lsh.Sampled(sig, p.R, p.L, p.Seed+1)
	}
	if err != nil {
		return nil, err
	}
	return bandRanger{b}, nil
}

type bandRanger struct{ *lsh.Bands }

func (b bandRanger) units() int { return b.Len() }

func (b bandRanger) span(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64) {
	return b.Range(dst, lo, hi)
}

func (b bandRanger) column(dst []pairs.Scored, col int) ([]pairs.Scored, int64) {
	return b.Column(dst, col)
}

func (b bandRanger) fork() ranger { return bandRanger{b.Fork()} }

// Range appends the candidates of units [lo, hi) to dst and returns the
// work the range cost: counter increments or bucket pairs. Consecutive
// ranges emit what one range over their union would; a Gatherer
// combines them. This is the one range check of phase 2, whoever the caller.
func (k *Kernel) Range(dst []pairs.Scored, lo, hi int) ([]pairs.Scored, int64, error) {
	if lo < 0 || hi > k.units || lo > hi {
		return dst, 0, fmt.Errorf("candidate: unit range [%d,%d) outside [0,%d)", lo, hi, k.units)
	}
	dst, work := k.r.span(dst, lo, hi)
	return dst, work, nil
}

// Column appends to dst the candidates that contain column col, each
// once, and returns the work that cost: the gathered full scan filtered
// on col — equal as a set, Estimate bit for Estimate bit — from col's
// own runs (one key comparison per band and column for M-LSH) instead
// of everybody's. It is the unit of a one-column query, as Range is of
// an all-pairs one, and the one column check of phase 2.
func (k *Kernel) Column(dst []pairs.Scored, col int) ([]pairs.Scored, int64, error) {
	if col < 0 || col >= k.cols {
		return dst, 0, fmt.Errorf("candidate: column %d outside [0,%d)", col, k.cols)
	}
	dst, work := k.r.column(dst, col)
	return dst, work, nil
}
