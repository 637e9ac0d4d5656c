// Package hamminglsh implements the H-LSH scheme of Section 4.2, which
// works directly on the data rather than on min-hash signatures. By
// Lemma 3, for columns of comparable density, high similarity is small
// Hamming distance:
//
//	S(c_i, c_j) = (|C_i|+|C_j|-d_H) / (|C_i|+|C_j|+d_H).
//
// Because real matrices are sparse and column densities vary, the
// algorithm builds a ladder of matrices M_0, M_1, M_2, ... where each
// M_{i+1} ORs random row pairs of M_i (halving rows, roughly doubling
// densities). At each level, columns whose density falls in the window
// (1/t, (t-1)/t) are hashed on r sampled row-bits, repeated l times; a
// pair sharing a key in any run at any level is a candidate.
package hamminglsh

import (
	"fmt"

	"assocmine/internal/bitset"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

// windowT is the paper's t: a column is eligible at a ladder level while
// its density is inside (1/t, (t-1)/t). The paper uses t = 4.
const windowT = 4

// Options parameterises H-LSH. The paper calls the per-run bit count r
// and the number of runs per level k (sometimes l).
type Options struct {
	// R is the number of sampled row-bits per hash key; must be in [1, 64].
	R int
	// L is the number of independent runs per ladder level.
	L int
	// Seed drives folding and row sampling.
	Seed uint64
}

func (o *Options) validate() error {
	if o.R < 1 || o.R > 64 {
		return fmt.Errorf("hamminglsh: R must be in [1,64], got %d", o.R)
	}
	if o.L < 1 {
		return fmt.Errorf("hamminglsh: L must be positive, got %d", o.L)
	}
	return nil
}

// maxLevels caps the fold ladder of a matrix of rows rows at one level
// per halving while more than two rows remain. For an odd count a fold
// keeps ⌈n/2⌉ rows, so the cap binds before FoldLadder's own stop at
// two rows.
func maxLevels(rows int) int {
	levels := 1
	for n := rows; n > 2; n /= 2 {
		levels++
	}
	return levels
}

// Stats reports the work the H-LSH pass performed.
type Stats struct {
	Levels        int   // ladder matrices processed
	Runs          int   // level x run hashings executed
	EligibleByLvl []int // columns inside the density window per level
	BucketPairs   int64 // pair-additions attempted (incl. duplicates)
	Candidates    int   // distinct pairs produced
}

// Candidates runs H-LSH over the matrix and returns the candidate pair
// set. Requires the full column-major matrix (the fold ladder is a
// whole-data structure, not a streaming sketch); the paper's phase-3
// verification still happens against the original data.
func Candidates(m *matrix.Matrix, opt Options) (*pairs.Set, Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	rng := hashing.NewSplitMix64(opt.Seed)
	ladder := m.FoldLadder(rng, maxLevels(m.NumRows()))

	set := pairs.NewSet(1024)
	var st Stats
	loD := 1.0 / windowT
	hiD := (windowT - 1.0) / windowT

	for _, level := range ladder {
		st.Levels++
		rows := level.NumRows()
		if rows == 0 {
			st.EligibleByLvl = append(st.EligibleByLvl, 0)
			continue
		}
		var eligible []int32
		for c := 0; c < level.NumCols(); c++ {
			if d := level.Density(c); d > loD && d < hiD {
				eligible = append(eligible, int32(c))
			}
		}
		st.EligibleByLvl = append(st.EligibleByLvl, len(eligible))
		if len(eligible) < 2 {
			continue
		}
		// Eligible columns are at least 1/t dense by construction, so a
		// bitmap per column beats binary-searching the index lists for
		// the R probes of every run.
		bitmaps := make([]*bitset.Set, len(eligible))
		for i, c := range eligible {
			bitmaps[i] = bitset.FromSorted(rows, level.Column(int(c)))
		}
		for run := 0; run < opt.L; run++ {
			st.Runs++
			sample := make([]int, opt.R)
			for i := range sample {
				sample[i] = rng.Intn(rows)
			}
			buckets := make(map[uint64][]int32, len(eligible))
			for i, c := range eligible {
				bm := bitmaps[i]
				var key uint64
				for b, r := range sample {
					if bm.Test(r) {
						key |= 1 << uint(b)
					}
				}
				key = hashing.Mix64(key)
				buckets[key] = append(buckets[key], c)
			}
			for _, cols := range buckets {
				for i := 0; i < len(cols); i++ {
					for j := i + 1; j < len(cols); j++ {
						st.BucketPairs++
						set.Add(cols[i], cols[j])
					}
				}
			}
		}
	}
	st.Candidates = set.Len()
	return set, st, nil
}
