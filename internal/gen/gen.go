// Package gen provides the workload generators behind the experiments:
// the paper-specified synthetic data (Section 5), a web-server-log
// generator standing in for the proprietary Sun Microsystems dataset,
// and a news-corpus generator standing in for the Reuters articles of
// Section 2. DESIGN.md documents why each substitution preserves the
// behaviour the paper measures.
package gen

import (
	"fmt"
	"math"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
)

// PlantedPair records a deliberately similar column pair and the
// similarity it was generated to have (the realised similarity varies
// around the target).
type PlantedPair struct {
	I, J      int32
	TargetSim float64
}

// SyntheticConfig follows Section 5's synthetic data description: m
// columns with densities between MinDensity and MaxDensity, one similar
// pair per 100 columns, split evenly across the five similarity ranges
// (45,55), (55,65), (65,75), (75,85), (85,95) percent.
type SyntheticConfig struct {
	Rows, Cols int
	MinDensity float64 // default 0.01
	MaxDensity float64 // default 0.05
	// PairsPerRange is the number of planted pairs per range; defaults
	// to Cols/100/len(simRanges) (the paper's one pair per 100 columns).
	PairsPerRange int
	Seed          uint64
}

// simRanges are the paper's five [lo, hi] similarity ranges of the
// planted pairs.
var simRanges = [][2]float64{{0.45, 0.55}, {0.55, 0.65}, {0.65, 0.75}, {0.75, 0.85}, {0.85, 0.95}}

func (c *SyntheticConfig) setDefaults() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("gen: rows and cols must be positive, got %dx%d", c.Rows, c.Cols)
	}
	if c.MinDensity == 0 {
		c.MinDensity = 0.01
	}
	if c.MaxDensity == 0 {
		c.MaxDensity = 0.05
	}
	if c.MinDensity <= 0 || c.MaxDensity > 1 || c.MinDensity > c.MaxDensity {
		return fmt.Errorf("gen: bad density range [%v, %v]", c.MinDensity, c.MaxDensity)
	}
	if c.PairsPerRange == 0 {
		c.PairsPerRange = c.Cols / 100 / len(simRanges)
		if c.PairsPerRange < 1 {
			c.PairsPerRange = 1
		}
	}
	if c.PairsPerRange < 0 {
		return fmt.Errorf("gen: PairsPerRange must be non-negative")
	}
	if 2*c.PairsPerRange*len(simRanges) > c.Cols {
		return fmt.Errorf("gen: %d planted pairs need %d columns, have %d",
			c.PairsPerRange*len(simRanges), 2*c.PairsPerRange*len(simRanges), c.Cols)
	}
	return nil
}

// Synthetic generates the Section 5 synthetic dataset. Planted pairs
// occupy the first 2·PairsPerRange·len(simRanges) columns (pair (2t,
// 2t+1)); the remaining columns are independent.
func Synthetic(cfg SyntheticConfig) (*matrix.Matrix, []PlantedPair, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	rng := hashing.NewSplitMix64(cfg.Seed)
	cols := make([][]int32, cfg.Cols)
	var planted []PlantedPair
	next := 0
	for _, rge := range simRanges {
		for p := 0; p < cfg.PairsPerRange; p++ {
			s := rge[0] + rng.Float64()*(rge[1]-rge[0])
			d := cfg.MinDensity + rng.Float64()*(cfg.MaxDensity-cfg.MinDensity)
			a, b := plantPair(rng, cfg.Rows, d, s)
			cols[next], cols[next+1] = a, b
			planted = append(planted, PlantedPair{I: int32(next), J: int32(next + 1), TargetSim: s})
			next += 2
		}
	}
	for ; next < cfg.Cols; next++ {
		d := cfg.MinDensity + rng.Float64()*(cfg.MaxDensity-cfg.MinDensity)
		cols[next] = bernoulliRows(rng, cfg.Rows, d)
	}
	m, err := matrix.New(cfg.Rows, cols)
	if err != nil {
		return nil, nil, err
	}
	return m, planted, nil
}

// plantPair generates two columns of density ~d with expected Jaccard
// similarity s: a row is in both with probability 2ds/(1+s) and in each
// column alone with probability d(1-s)/(1+s).
func plantPair(rng *hashing.SplitMix64, rows int, d, s float64) (a, b []int32) {
	pBoth := 2 * d * s / (1 + s)
	pOnly := d * (1 - s) / (1 + s)
	for r := 0; r < rows; r++ {
		u := rng.Float64()
		switch {
		case u < pBoth:
			a = append(a, int32(r))
			b = append(b, int32(r))
		case u < pBoth+pOnly:
			a = append(a, int32(r))
		case u < pBoth+2*pOnly:
			b = append(b, int32(r))
		}
	}
	return a, b
}

// bernoulliRows samples each of n rows independently with probability
// p, using geometric gap skipping so the cost is proportional to the
// number of 1s rather than n.
func bernoulliRows(rng *hashing.SplitMix64, n int, p float64) []int32 {
	if p <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	var out []int32
	logq := math.Log(1 - p)
	r := 0
	for {
		u := rng.Float64()
		if u == 0 {
			u = 1e-18
		}
		r += int(math.Log(u)/logq) + 1
		if r > n {
			return out
		}
		out = append(out, int32(r-1))
	}
}
