package assocmine

import (
	"fmt"

	"assocmine/internal/hashing"
	"assocmine/internal/lsh"
)

// LSHBudget describes the quality target for OptimizeLSH: the expected
// number of false negatives and false positives the user will tolerate
// at a similarity threshold (the Section 4.1 minimization problem).
type LSHBudget struct {
	// Threshold is the similarity cutoff s*.
	Threshold float64
	// SampleColumns is how many columns to sample when estimating the
	// similarity distribution; default 200 (capped at the column
	// count).
	SampleColumns int
	// MaxFalseNeg and MaxFalsePos bound the expected error counts.
	MaxFalseNeg float64
	MaxFalsePos float64
	// Seed drives the column sample.
	Seed uint64
}

// maxR and maxL bound OptimizeLSH's search space over (r, l).
const maxR, maxL = 40, 500

// LSHParams is the optimizer's choice with its predicted error counts
// over the sampled distribution.
type LSHParams struct {
	R, L        int
	PredictedFN float64
	PredictedFP float64
}

// OptimizeLSH solves the paper's input-sensitive parameter problem:
// minimize the signature budget l·r such that the expected false
// negatives and false positives of Min-LSH — computed from a sampled
// similarity distribution of this dataset — stay within budget. Use
// the returned R and L (and K = R*L) in a MinLSH Config.
func OptimizeLSH(d *Dataset, b LSHBudget) (LSHParams, error) {
	if b.Threshold <= 0 || b.Threshold > 1 {
		return LSHParams{}, fmt.Errorf("assocmine: Threshold must be in (0,1], got %v", b.Threshold)
	}
	if b.SampleColumns == 0 {
		b.SampleColumns = 200
	}
	if b.SampleColumns < 2 {
		return LSHParams{}, fmt.Errorf("assocmine: SampleColumns must be at least 2")
	}
	dist, err := sampleDistribution(d, b.SampleColumns, b.Seed)
	if err != nil {
		return LSHParams{}, err
	}
	p, err := lsh.Optimize(dist, b.Threshold, b.MaxFalseNeg, b.MaxFalsePos, maxR, maxL)
	if err != nil {
		return LSHParams{}, err
	}
	return LSHParams{R: p.R, L: p.L, PredictedFN: p.FN, PredictedFP: p.FP}, nil
}

// sampleDistribution estimates the pairwise similarity distribution by
// sampling columns and scaling counts to the full pair count (the
// procedure Section 4.1 assumes: "we can approximate this distribution
// by sampling a small fraction of columns").
func sampleDistribution(d *Dataset, sampleCols int, seed uint64) (lsh.Distribution, error) {
	m := d.m
	if sampleCols > m.NumCols() {
		sampleCols = m.NumCols()
	}
	if sampleCols < 2 {
		return lsh.Distribution{}, fmt.Errorf("assocmine: need at least 2 columns to sample")
	}
	rng := hashing.NewSplitMix64(seed)
	sample := rng.Perm(m.NumCols())[:sampleCols]
	edges := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
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
	samplePairs := float64(sampleCols) * float64(sampleCols-1) / 2
	totalPairs := float64(m.NumCols()) * float64(m.NumCols()-1) / 2
	scale := totalPairs / samplePairs
	dist := lsh.Distribution{S: make([]float64, len(counts)), Count: make([]float64, len(counts))}
	for b := range counts {
		dist.S[b] = (edges[b] + edges[b+1]) / 2
		dist.Count[b] = counts[b] * scale
	}
	return dist, nil
}
