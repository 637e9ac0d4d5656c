// Package bps implements biased pair sampling (BPS), the fifth
// candidate-generation scheme of this repository, after Campagna &
// Pagh, "Finding Associations and Computing Similarity via Biased Pair
// Sampling". Unlike the four signature schemes (MH, K-MH, M-LSH,
// H-LSH) it builds no signature matrix at all: candidates are drawn
// directly from the rows. Phase 1 is one pass counting column supports
// s_i; phase 2 scans the rows again and, for every pair of columns
// co-occurring in a row, accepts the draw with probability
//
//	p_ij = min(1, Δ/(s_i·s_j)),  Δ = λ·(1+s*)·S_max/(2·s*),
//
// where s* is the similarity threshold, S_max = max_i s_i, and λ (the
// sample budget, Options.Budget) calibrates the scale: a pair whose
// similarity is exactly s* co-occurs in c* = s*·(s_i+s_j)/(1+s*) rows,
// so its expected accepted count is p_ij·c* = λ·S_max·(1/s_i+1/s_j)/2
// ≥ λ. Low-support (interesting) pairs get p_ij = 1 — exact
// co-occurrence counting, hence no false negatives — while high-support
// pairs are subsampled at a rate inversely proportional to s_i·s_j,
// the same support-free bias the Cohen et al. schemes realise through
// hashing. A sampled pair becomes a candidate when its accepted count
// reaches (1-δ)·p_ij·c*, mirroring the (1-δ)·s* candidate filter of
// the counting schemes; growing λ concentrates the counts around their
// means, so the false-positive rate of the filter shrinks as the budget
// grows. The exact verification pass then prunes the survivors as for
// every other scheme.
//
// Admissibility. A pair's accepted draws n never exceed its
// co-occurrences c_ij, which never exceed min(s_i, s_j): a pair whose
// smaller support is already below the filter's required count can
// never become a candidate, so the sampler drops its draws before
// hashing or tallying them (filter.at computes p_ij and that count for
// both the sampler and finalize). Candidates and estimates are those of
// the full tally by construction; only the tally — and so Stats.Accepts
// and Stats.Dups — shrinks. The bound needs the supports of the data
// sampled (Sample's contract) and every column at most once per row,
// which Supports and the sampler enforce.
//
// Determinism (the seed-splitting argument). The accept decision for a
// draw is a pure hash of (seed, row, i, j) — no stateful RNG stream:
// the seed is split once per row (one Mix64 of seed and row id) and
// once more per pair (a second Mix64 folding in the canonical pair
// key), yielding an independent uniform in [0,1) that any worker
// computes identically. The set of accepted draws is therefore
// independent of row delivery order, shard boundaries, and worker
// count, and the per-pair counts merge across workers by plain
// addition — serial, parallel, streamed and spilled runs are
// bit-identical by construction.
package bps

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/radix"
)

// Options configures a sampling pass.
type Options struct {
	// Threshold is s*, the similarity cutoff, in (0,1].
	Threshold float64
	// Delta loosens the candidate filter exactly as for the counting
	// schemes: a sampled pair becomes a candidate when its accepted
	// count reaches (1-Delta) times the expected accepted count of a
	// pair at Threshold. In [0,1).
	Delta float64
	// Budget is λ, the expected number of accepted draws for a pair
	// exactly at Threshold. Larger budgets raise recall and sharpen the
	// candidate filter (fewer false positives) at proportionally more
	// accepted samples. Must be >= 1.
	Budget int
	// Seed drives the per-(row,pair) accept hashes.
	Seed uint64
	// Workers parallelises the sampling scan across goroutines fed by
	// one matrix.Deal pass (<= 1 means serial). Output is bit-identical
	// at every worker count.
	Workers int
}

// Stats reports the work a sampling pass performed.
type Stats struct {
	// Inspected counts the in-row pair draws examined: Σ b·(b-1)/2
	// over basket sizes b — the scheme's candidate-phase work measure.
	Inspected int64
	// Accepts counts the tallied draws — those of admissible pairs that
	// the biased acceptance test kept — and Dups the tallied draws for
	// pairs that had already been sampled (Accepts minus distinct
	// tallied pairs).
	Accepts int64
	Dups    int64
	// Shards counts the bounded row blocks dealt to parallel samplers
	// (0 for a serial scan).
	Shards int64
}

// Supports performs one sequential pass over src and returns the
// support (number of rows set) of every column. Rows referencing
// columns outside [0, NumCols) or naming a column twice are rejected
// with an error naming the row and column.
func Supports(src matrix.RowSource) ([]int64, error) {
	m := src.NumCols()
	st := NewFoldState(m)
	check := newRowCheck(m)
	err := src.Scan(func(row int, cols []int32) error {
		if err := check.row(row, cols); err != nil {
			return err
		}
		st.FoldRow(row, cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.sup, nil
}

// rowCheck validates rows for Supports and the sampler: every column in
// [0, m) and none named twice in a row, at O(1) per entry — mark holds,
// per column, the number of the last row that named it.
type rowCheck struct {
	mark []int
	rows int
}

func newRowCheck(m int) rowCheck { return rowCheck{mark: make([]int, m)} }

func (k *rowCheck) row(row int, cols []int32) error {
	k.rows++
	for _, c := range cols {
		if c < 0 || int(c) >= len(k.mark) {
			return fmt.Errorf("bps: row %d references column %d outside [0,%d)", row, c, len(k.mark))
		}
		if k.mark[c] == k.rows {
			return fmt.Errorf("bps: row %d repeats column %d", row, c)
		}
		k.mark[c] = k.rows
	}
	return nil
}

// SupportsFromLister reads the supports off a column-major in-memory
// source without a row scan (the I/O-equivalent of one pass).
func SupportsFromLister(ls matrix.ColumnLister) []int64 {
	sup := make([]int64, ls.NumCols())
	for c := range sup {
		sup[c] = int64(len(ls.ColumnRows(c)))
	}
	return sup
}

// Counts is the tally of a scan's accepted draws of admissible pairs as
// a sorted run: Keys strictly ascending (pairs.Pair.Key of a canonical
// pair — which is (I, J) order), N[x] >= 1 the draws of pair Keys[x].
type Counts struct {
	Keys []uint64
	N    []int64
}

// MergeCounts adds two tallies: the exact merge for counts produced
// over disjoint row ranges. The result may alias an argument when the
// other is empty; a and b are not modified.
func MergeCounts(a, b Counts) Counts {
	if len(a.Keys) == 0 {
		return b
	}
	if len(b.Keys) == 0 {
		return a
	}
	keys := make([]uint64, len(a.Keys)+len(b.Keys))
	ns := make([]int64, len(keys))
	x, y, z := 0, 0, 0
	for ; x < len(a.Keys) && y < len(b.Keys); z++ {
		switch ka, kb := a.Keys[x], b.Keys[y]; {
		case ka < kb:
			keys[z], ns[z] = ka, a.N[x]
			x++
		case kb < ka:
			keys[z], ns[z] = kb, b.N[y]
			y++
		default:
			keys[z], ns[z] = ka, a.N[x]+b.N[y]
			x++
			y++
		}
	}
	// At most one side has a tail.
	copy(keys[z:], a.Keys[x:])
	z += copy(ns[z:], a.N[x:])
	copy(keys[z:], b.Keys[y:])
	z += copy(ns[z:], b.N[y:])
	return Counts{Keys: keys[:z], N: ns[:z]}
}

// total returns the accepted draws the tally holds.
func (c Counts) total() int64 {
	var n int64
	for _, v := range c.N {
		n += v
	}
	return n
}

// chunkKeys is the sampler's chunk capacity: 8 MiB of keys plus as much
// sort scratch. Merging costs more per key than sorting, so the chunk
// is as large as stays small beside the tally it feeds: five million
// draws take three merge levels (1<<16: six, and half again the time).
const chunkKeys = 1 << 20

// sampler accumulates one scan partition's tally. The admissibility and
// accept decisions are pure functions of (supports, seed, row, pair), so
// any partition of the rows across samplers yields the same merged
// counts.
//
// Tallied pair keys are appended to a bounded chunk. A full chunk is
// radix-sorted and run-length-compacted into a Counts run, which joins
// a stack of runs whose sizes at least halve towards the top: a new run
// absorbs every run below it that is not more than twice its size, so
// a key takes part in O(log n) merges and memory stays at the distinct
// pairs plus one chunk.
type sampler struct {
	sup       []int64
	f         filter
	seedMix   uint64
	chunkCap  int
	check     rowCheck
	chunk     []uint64 // grows by append up to chunkCap
	scratch   []uint64
	runs      []Counts
	inspected int64
}

func newSampler(sup []int64, f filter, seedMix uint64, chunkCap int) *sampler {
	return &sampler{sup: sup, f: f, seedMix: seedMix, chunkCap: chunkCap, check: newRowCheck(len(sup))}
}

// flush turns the pending chunk into a run on the stack.
func (s *sampler) flush() {
	if len(s.chunk) == 0 {
		return
	}
	if len(s.scratch) < len(s.chunk) {
		s.scratch = make([]uint64, cap(s.chunk))
	}
	radix.SortKeys(s.chunk, s.scratch)
	distinct := 1
	for x := 1; x < len(s.chunk); x++ {
		if s.chunk[x] != s.chunk[x-1] {
			distinct++
		}
	}
	run := Counts{Keys: make([]uint64, 0, distinct), N: make([]int64, 0, distinct)}
	for _, k := range s.chunk {
		if n := len(run.Keys); n > 0 && run.Keys[n-1] == k {
			run.N[n-1]++
		} else {
			run.Keys, run.N = append(run.Keys, k), append(run.N, 1)
		}
	}
	s.chunk = s.chunk[:0]
	for n := len(s.runs); n > 0 && len(s.runs[n-1].Keys) <= 2*len(run.Keys); n-- {
		run = MergeCounts(s.runs[n-1], run)
		s.runs = s.runs[:n-1]
	}
	s.runs = append(s.runs, run)
}

// counts flushes the sampler and returns its tally.
func (s *sampler) counts() Counts {
	s.flush()
	var out Counts
	for n := len(s.runs) - 1; n >= 0; n-- {
		out = MergeCounts(s.runs[n], out)
	}
	s.runs = nil
	return out
}

// row folds one row's pair draws into the sampler: every draw is
// inspected, a draw of an inadmissible pair is dropped before it is
// hashed, and the biased acceptance test decides the rest.
func (s *sampler) row(row int, cols []int32) error {
	if err := s.check.row(row, cols); err != nil {
		return err
	}
	rowH := hashing.Mix64(s.seedMix ^ (uint64(row)+1)*0x9e3779b97f4a7c15)
	for a, i := range cols {
		si := s.sup[i]
		for _, j := range cols[a+1:] {
			sj := s.sup[j]
			p, need := s.f.at(float64(si), float64(sj))
			if float64(min(si, sj)) < need {
				continue
			}
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			key := pairs.Pair{I: lo, J: hi}.Key()
			if p < 1 {
				u := float64(hashing.Mix64(rowH^key)>>11) / (1 << 53)
				if u >= p {
					continue
				}
			}
			if s.chunk = append(s.chunk, key); len(s.chunk) >= s.chunkCap {
				s.flush()
			}
		}
		s.inspected += int64(len(cols) - a - 1)
	}
	return nil
}

// Sample performs one sequential pass over src, drawing biased pair
// samples from every row, and returns the candidate pairs whose
// accepted counts pass the (1-Delta) filter, sorted by (I, J) with
// Estimate set to the unbiased similarity estimate ĉ/(s_i+s_j-ĉ),
// ĉ = min(count/p_ij, min(s_i, s_j)). sup must be the supports of the
// same data (see Supports); rows referencing columns outside sup or
// naming a column twice are rejected with an error.
func Sample(src matrix.RowSource, sup []int64, opt Options) ([]pairs.Scored, Stats, error) {
	counts, st, err := sampleCounts(src, sup, opt)
	if err != nil {
		return nil, st, err
	}
	cand, fin, err := FinalizeCounts(counts, sup, opt)
	st.Accepts, st.Dups = fin.Accepts, fin.Dups
	return cand, st, err
}

// sampleCounts is the sampling pass: one sequential scan dealt
// round-robin to opt.Workers private samplers (one sampler reads it
// directly), whose tallies merge by addition because accept decisions
// are per-(row,pair) hashes, independent of the partition. It fills
// Stats.Inspected and Stats.Shards.
func sampleCounts(src matrix.RowSource, sup []int64, opt Options) (counts Counts, st Stats, err error) {
	if err := validateOptions(opt); err != nil {
		return Counts{}, st, err
	}
	f, seedMix := sampleParams(sup, opt)
	samplers := make([]*sampler, max(opt.Workers, 1))
	sinks := make([]matrix.Sink, len(samplers))
	for w := range samplers {
		samplers[w] = newSampler(sup, f, seedMix, chunkKeys)
		sinks[w] = samplers[w].row
	}
	if st.Shards, err = matrix.Deal(src, sinks); err != nil {
		return Counts{}, st, err
	}
	for _, s := range samplers {
		st.Inspected += s.inspected
		counts = MergeCounts(counts, s.counts())
	}
	return counts, st, nil
}

// validateOptions rejects out-of-range sampling parameters; shared by
// Sample and the split SampleCounts/FinalizeCounts entry points.
func validateOptions(opt Options) error {
	if opt.Threshold <= 0 || opt.Threshold > 1 {
		return fmt.Errorf("bps: Threshold must be in (0,1], got %v", opt.Threshold)
	}
	if opt.Delta < 0 || opt.Delta >= 1 {
		return fmt.Errorf("bps: Delta must be in [0,1), got %v", opt.Delta)
	}
	if opt.Budget < 1 {
		return fmt.Errorf("bps: Budget must be >= 1, got %d", opt.Budget)
	}
	return nil
}

// filter is a sampling pass's acceptance scale and candidate filter.
type filter struct {
	scale, threshold, delta float64
}

// at returns p_ij = min(1, Δ/(s_i·s_j)), the acceptance probability of a
// draw of a pair with supports si and sj, and need = (1-δ)·p_ij·c*, c* =
// s*·(s_i+s_j)/(1+s*), the accepted draws at which the pair becomes a
// candidate. It is symmetric to the bit in si and sj (floating-point +
// and × commute), so the sampler may pass a row's columns in either
// order. An inconsistent supports slice (a zero support for an observed
// column, possible only under hostile inputs) yields Δ/0 = Inf or NaN,
// which maps to p = 1: exact counting.
func (f filter) at(si, sj float64) (p, need float64) {
	p = f.scale / (si * sj)
	if !(p < 1) {
		p = 1
	}
	cThresh := f.threshold * (si + sj) / (1 + f.threshold)
	return p, (1 - f.delta) * p * cThresh
}

// sampleParams derives the filter — its acceptance scale Δ =
// λ·(1+s*)·S_max/(2·s*) — and the split seed from the GLOBAL supports:
// every scan partition must use the same pair, or accept decisions
// diverge.
func sampleParams(sup []int64, opt Options) (f filter, seedMix uint64) {
	var smax int64
	for _, s := range sup {
		if s > smax {
			smax = s
		}
	}
	f = filter{
		scale:     float64(opt.Budget) * (1 + opt.Threshold) * float64(smax) / (2 * opt.Threshold),
		threshold: opt.Threshold,
		delta:     opt.Delta,
	}
	seedMix = hashing.Mix64(opt.Seed ^ 0xb5ad4eceda1ce2a9)
	return f, seedMix
}

// finalize applies the (1-Delta) count filter and the unbiased
// similarity estimate to the merged counts, returning candidates
// in the tally's (I, J) order — the exact tail of Sample.
func finalize(counts Counts, sup []int64, f filter) []pairs.Scored {
	var out []pairs.Scored
	for x, key := range counts.Keys {
		n := counts.N[x]
		pair := pairs.FromKey(key)
		si, sj := float64(sup[pair.I]), float64(sup[pair.J])
		p, need := f.at(si, sj)
		if float64(n) < need {
			continue
		}
		est := float64(n) / p
		if m := math.Min(si, sj); est > m {
			est = m
		}
		sim := 0.0
		if denom := si + sj - est; denom > 0 {
			sim = est / denom
		}
		if sim > 1 {
			sim = 1
		}
		if !(sim >= 0) {
			sim = 0
		}
		out = append(out, pairs.Scored{Pair: pair, Estimate: sim})
	}
	return out
}

// SampleCounts runs the sampling scan over src — typically a row-range
// view of the full dataset — and returns the per-pair tally of accepted
// draws of admissible pairs plus the inspected-draw count. sup must be
// the supports of the FULL dataset: the acceptance scale and the
// admissibility bound depend on the global S_max and per-column
// supports, so a partial supports slice would change both decisions.
// Accept decisions are pure (seed, row, pair) hashes, so
// counts from any row partition merged with MergeCounts equal a
// full-scan's counts exactly — the identity the scale-out executor's
// workers rely on.
func SampleCounts(src matrix.RowSource, sup []int64, opt Options) (Counts, int64, error) {
	counts, st, err := sampleCounts(src, sup, opt)
	return counts, st.Inspected, err
}

// FinalizeCounts applies Sample's candidate filter and estimator to
// merged counts, returning candidates sorted by (I, J) and the
// Accepts/Dups statistics (Inspected is not derivable from counts; the
// caller sums it across partitions). Equals the tail of Sample when
// counts are the merge of a full row partition.
func FinalizeCounts(counts Counts, sup []int64, opt Options) ([]pairs.Scored, Stats, error) {
	var st Stats
	if err := validateOptions(opt); err != nil {
		return nil, st, err
	}
	f, _ := sampleParams(sup, opt)
	st.Accepts = counts.total()
	st.Dups = st.Accepts - int64(len(counts.Keys))
	return finalize(counts, sup, f), st, nil
}
