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
// densities): one random relabelling π of the rows, applied in the one
// pass over the data, makes row i of M_ℓ the OR of the rows r with
// π(r) >> ℓ = i. At each level, columns whose density falls in the window
// (1/t, (t-1)/t) are hashed on r sampled row-bits, repeated l times; a
// pair sharing a key in any run at any level is a candidate.
package hamminglsh

import (
	"fmt"
	"slices"

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
	// Seed drives the row relabelling and the row sampling.
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

// maxLevels caps the ladder over rows rows at one level per halving
// while more than two rows remain. A level keeps ⌈rows/2⌉ rows, never
// fewer than this floor-halving count, so the cap always binds before a
// level could fold two or fewer rows.
func maxLevels(rows int) int {
	levels := 1
	for n := rows; n > 2; n /= 2 {
		levels++
	}
	return levels
}

// Stats reports the work the H-LSH pass performed.
type Stats struct {
	Levels        int   // ladder levels processed
	Runs          int   // level x run hashings executed
	EligibleByLvl []int // columns inside the density window per level
	BucketPairs   int64 // pair-additions attempted (incl. duplicates)
	Candidates    int   // distinct pairs produced
}

// Candidates runs H-LSH over src in one pass and returns the candidate
// pair set; the paper's phase-3 verification still happens against the
// original data. The pass relabels row r as π(r), one permutation drawn
// from Seed, and keeps each column's relabelled rows: the folded row of r
// at level ℓ is π(r) >> ℓ, so every level ORs disjoint, uniformly random
// groups of 2^ℓ source rows, and one set of column lists serves the whole
// ladder.
func Candidates(src matrix.RowSource, opt Options) (*pairs.Set, Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	rng := hashing.NewSplitMix64(opt.Seed)
	n := src.NumRows()
	cols, err := relabel(src, rng.Perm(n))
	if err != nil {
		return nil, Stats{}, err
	}

	set := pairs.NewSet(1024)
	var st Stats
	loD := 1.0 / windowT
	hiD := (windowT - 1.0) / windowT

	ladder(n, cols, func(rows int, cols [][]int32) {
		st.Levels++
		var eligible []int32
		for c, col := range cols {
			if d := float64(len(col)) / float64(rows); rows > 0 && d > loD && d < hiD {
				eligible = append(eligible, int32(c))
			}
		}
		st.EligibleByLvl = append(st.EligibleByLvl, len(eligible))
		if len(eligible) < 2 {
			return
		}
		// Eligible columns are at least 1/t dense by construction, so a
		// bitmap per column beats binary-searching the index lists for
		// the R probes of every run.
		bitmaps := make([]*bitset.Set, len(eligible))
		for i, c := range eligible {
			bitmaps[i] = bitset.FromSorted(rows, cols[c])
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
	})
	st.Candidates = set.Len()
	return set, st, nil
}

// relabel is the one pass: each row's id r becomes perm[r] in the list
// of every column the row holds, and each list is sorted once (a row
// holds a column at most once, so no list repeats an id).
func relabel(src matrix.RowSource, perm []int) ([][]int32, error) {
	cols := make([][]int32, src.NumCols())
	err := src.Scan(func(r int, cs []int32) error {
		id := int32(perm[r])
		for _, c := range cs {
			cols[c] = append(cols[c], id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, col := range cols {
		slices.Sort(col)
	}
	return cols, nil
}

// ladder hands visit the maxLevels(n) levels of the fold ladder over the
// relabelled columns of an n-row matrix, with each level's row count.
// Level 0 is cols as given; each later level shifts every id right by one
// and drops the adjacent duplicates this makes, in place, so a level keeps
// ⌈rows/2⌉ rows and its lists stay sorted. visit must not keep cols.
func ladder(n int, cols [][]int32, visit func(rows int, cols [][]int32)) {
	rows := n
	for level := range maxLevels(n) {
		if level > 0 {
			rows = (rows + 1) / 2
			for c, col := range cols {
				w := 0
				for _, id := range col {
					if id >>= 1; w == 0 || col[w-1] != id {
						col[w] = id
						w++
					}
				}
				cols[c] = col[:w]
			}
		}
		visit(rows, cols)
	}
}
