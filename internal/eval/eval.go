// Package eval is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). It scores algorithm
// output against exact ground truth (S-curves, false positives/
// negatives), builds similarity histograms and sampled distributions,
// and exposes one driver per figure (Fig2 … Fig9) used by
// cmd/experiments and the benchmark suite.
package eval

import (
	"fmt"
	"time"

	"assocmine"
	"assocmine/internal/lsh"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/verify"
)

// DefaultEdges are the similarity bucket edges used for S-curves and
// histograms (10-point buckets like the paper's similarity ranges).
func DefaultEdges() []float64 {
	return []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// GroundTruth holds the exact similar-pair inventory of a dataset above
// a floor similarity, computed once and reused across experiments.
type GroundTruth struct {
	Floor float64
	Pairs []pairs.Scored         // all pairs with similarity >= Floor
	Sim   map[pairs.Pair]float64 // exact similarity lookup
}

// NewGroundTruth computes the exact pair inventory (brute force).
func NewGroundTruth(m *matrix.Matrix, floor float64) (*GroundTruth, error) {
	ps, err := verify.AllPairs(m, floor)
	if err != nil {
		return nil, err
	}
	sim := make(map[pairs.Pair]float64, len(ps))
	for _, p := range ps {
		sim[p.Pair] = p.Exact
	}
	return &GroundTruth{Floor: floor, Pairs: ps, Sim: sim}, nil
}

// CountAtLeast returns the number of true pairs with similarity >= s.
func (g *GroundTruth) CountAtLeast(s float64) int {
	n := 0
	for _, p := range g.Pairs {
		if p.Exact >= s {
			n++
		}
	}
	return n
}

// SCurve is the paper's quality plot: per similarity bucket, the ratio
// of pairs found by an algorithm to the true number of pairs.
type SCurve struct {
	Edges  []float64 // len B+1
	Found  []int     // len B
	Actual []int     // len B
}

// Ratio returns Found/Actual for bucket b (0 when the bucket is empty).
func (s SCurve) Ratio(b int) float64 {
	if s.Actual[b] == 0 {
		return 0
	}
	return float64(s.Found[b]) / float64(s.Actual[b])
}

// Mid returns the midpoint similarity of bucket b.
func (s SCurve) Mid(b int) float64 {
	return (s.Edges[b] + s.Edges[b+1]) / 2
}

// ComputeSCurve buckets the algorithm's found pairs and the ground
// truth by exact similarity. Found pairs below the truth floor are
// ignored (they belong to the giant near-zero mass the plot does not
// cover).
func ComputeSCurve(g *GroundTruth, found []assocmine.Pair, edges []float64) SCurve {
	sc := SCurve{Edges: edges, Found: make([]int, len(edges)-1), Actual: make([]int, len(edges)-1)}
	sc.Actual = verify.CountInRanges(g.Pairs, edges)
	for _, p := range found {
		s, ok := g.Sim[pairs.Make(int32(p.I), int32(p.J))]
		if !ok {
			continue
		}
		for b := 0; b+1 < len(edges); b++ {
			if s >= edges[b] && (s < edges[b+1] || (b+2 == len(edges) && s <= edges[b+1])) {
				sc.Found[b]++
				break
			}
		}
	}
	return sc
}

// Quality summarises an algorithm's candidate set against the ground
// truth at a similarity cutoff.
type Quality struct {
	Cutoff   float64
	TruePos  int // found pairs with exact similarity >= cutoff
	FalsePos int // found pairs below cutoff (includes pairs under the truth floor)
	FalseNeg int // true pairs >= cutoff that were not found
}

// FNRate returns FalseNeg / (TruePos + FalseNeg), 0 when there are no
// true pairs.
func (q Quality) FNRate() float64 {
	den := q.TruePos + q.FalseNeg
	if den == 0 {
		return 0
	}
	return float64(q.FalseNeg) / float64(den)
}

// ScoreCandidates evaluates found pairs against the ground truth at
// cutoff (cutoff must be >= the truth floor).
func ScoreCandidates(g *GroundTruth, found []assocmine.Pair, cutoff float64) (Quality, error) {
	if cutoff < g.Floor {
		return Quality{}, fmt.Errorf("eval: cutoff %v below ground-truth floor %v", cutoff, g.Floor)
	}
	q := Quality{Cutoff: cutoff}
	seen := pairs.NewSet(len(found))
	for _, p := range found {
		if !seen.Add(int32(p.I), int32(p.J)) {
			continue
		}
		if s, ok := g.Sim[pairs.Make(int32(p.I), int32(p.J))]; ok && s >= cutoff {
			q.TruePos++
		} else {
			q.FalsePos++
		}
	}
	for _, p := range g.Pairs {
		if p.Exact >= cutoff && !seen.Contains(p.I, p.J) {
			q.FalseNeg++
		}
	}
	return q, nil
}

// Histogram counts column pairs per similarity bucket over the whole
// dataset (Fig. 3). The first bucket absorbs every pair below the
// computed floor (the overwhelming near-zero mass), counted by
// subtraction from C(m,2).
func Histogram(m *matrix.Matrix, edges []float64) ([]int64, error) {
	floor := edges[1] // only pairs >= second edge are materialised
	truth, err := verify.AllPairs(m, floor)
	if err != nil {
		return nil, err
	}
	counts := verify.CountInRanges(truth, edges)
	out := make([]int64, len(counts))
	var above int64
	for b := 1; b < len(counts); b++ {
		out[b] = int64(counts[b])
		above += int64(counts[b])
	}
	total := int64(m.NumCols()) * int64(m.NumCols()-1) / 2
	out[0] = total - above
	return out, nil
}

// SampleDistribution estimates the pairwise similarity distribution by
// sampling sampleCols columns and counting all their pairwise
// similarities, scaled to the full pair count — the estimation
// procedure Section 4.1 assumes for the (r, l) optimizer.
func SampleDistribution(m *matrix.Matrix, sampleCols int, edges []float64, seed uint64) (lsh.Distribution, error) {
	if sampleCols < 2 {
		return lsh.Distribution{}, fmt.Errorf("eval: need at least 2 sample columns, got %d", sampleCols)
	}
	if sampleCols > m.NumCols() {
		sampleCols = m.NumCols()
	}
	rngPerm := newPerm(seed, m.NumCols())
	sample := rngPerm[:sampleCols]
	counts := make([]float64, len(edges)-1)
	for a := 0; a < len(sample); a++ {
		for b := a + 1; b < len(sample); b++ {
			s := m.Similarity(sample[a], sample[b])
			for e := 0; e+1 < len(edges); e++ {
				if s >= edges[e] && (s < edges[e+1] || (e+2 == len(edges) && s <= edges[e+1])) {
					counts[e]++
					break
				}
			}
		}
	}
	// Scale sampled pair counts up to the full number of pairs.
	samplePairs := float64(sampleCols) * float64(sampleCols-1) / 2
	totalPairs := float64(m.NumCols()) * float64(m.NumCols()-1) / 2
	scale := totalPairs / samplePairs
	d := lsh.Distribution{S: make([]float64, len(counts)), Count: make([]float64, len(counts))}
	for b := range counts {
		d.S[b] = (edges[b] + edges[b+1]) / 2
		d.Count[b] = counts[b] * scale
	}
	return d, nil
}

func newPerm(seed uint64, n int) []int {
	// Local import indirection avoided: inline Fisher-Yates on a
	// splitmix stream.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Run executes an algorithm end-to-end and reports its candidates, its
// verified output, and per-phase timing. The candidate set (pre-
// verification) is what the S-curves score; the total time includes
// verification, matching the paper's CPU-time comparisons.
type Run struct {
	Config     assocmine.Config
	Candidates []assocmine.Pair
	Verified   []assocmine.Pair
	Stats      assocmine.Stats
}

// Execute runs cfg against d, returning candidates and verified output
// with one signature pass shared between them.
func Execute(d *assocmine.Dataset, cfg assocmine.Config) (*Run, error) {
	candCfg := cfg
	candCfg.SkipVerify = true
	res, err := assocmine.SimilarPairs(d, candCfg)
	if err != nil {
		return nil, err
	}
	run := &Run{Config: cfg, Candidates: res.Pairs, Stats: res.Stats}
	// Verification timing on the same candidates.
	start := time.Now()
	scored := make([]pairs.Scored, len(res.Pairs))
	for i, p := range res.Pairs {
		scored[i] = pairs.Scored{Pair: pairs.Make(int32(p.I), int32(p.J)), Estimate: p.Estimate}
	}
	verified, _, err := verify.Verify(d.Matrix().Stream(), scored, verify.Params{
		Threshold: cfg.Threshold,
		Kernel:    cfg.VerifyKernel,
		Budget:    verify.Budget{Bytes: cfg.MemoryBudget, Dir: cfg.SpillDir},
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	run.Stats.VerifyTime = time.Since(start)
	run.Stats.Verified = len(verified)
	pairs.SortScored(verified)
	run.Verified = make([]assocmine.Pair, len(verified))
	for i, p := range verified {
		run.Verified[i] = assocmine.Pair{I: int(p.I), J: int(p.J), Estimate: p.Estimate, Similarity: p.Exact}
	}
	return run, nil
}
