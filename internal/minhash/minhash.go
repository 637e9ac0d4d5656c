// Package minhash implements the MH scheme of Section 3: k independent
// min-hash values per column, computed in a single streaming pass using
// O(mk) memory, together with the similarity estimator Ŝ of
// Definition 1 and the Theorem 1 sample-size bound.
//
// By Proposition 1, for one random row order Prob[h(c_i) = h(c_j)] =
// S(c_i, c_j); the matrix of k independent min-hash values is therefore
// a compact sketch whose per-pair agreement fraction concentrates
// around the true similarity.
package minhash

import (
	"fmt"
	"math"

	"assocmine/internal/matrix"
)

// Empty is the sentinel min-hash value of a column with no 1s. It
// compares unequal to every real hash value for estimation purposes.
const Empty = ^uint64(0)

// Signatures holds the k x m min-hash matrix M̂: Vals[l*M + c] is
// h_l(c), the min-hash of column c under the l-th row order.
type Signatures struct {
	K    int      // number of independent hash functions
	M    int      // number of columns
	Vals []uint64 // length K*M, row-major by hash index
}

// Compute scans src once and returns k independent min-hash values per
// column: NewFoldState, FoldRow over one Scan, Finish. The same (src, k,
// seed) always yields the same signatures.
func Compute(src matrix.RowSource, k int, seed uint64) (*Signatures, error) {
	st, err := NewFoldState(src.NumCols(), k, seed)
	if err != nil {
		return nil, err
	}
	err = src.Scan(func(row int, cols []int32) error {
		st.FoldRow(row, cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.Finish(), nil
}

// foldMin lowers each dst[l] to rowVals[l] when smaller. This is the
// hot inner loop of the signature pass: dst is one column's contiguous
// minima, so the sweep is a straight run over cached words, unrolled by
// four with the bounds checks hoisted.
func foldMin(dst, rowVals []uint64) {
	rowVals = rowVals[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, r := dst[i:i+4:i+4], rowVals[i:i+4:i+4]
		if r[0] < d[0] {
			d[0] = r[0]
		}
		if r[1] < d[1] {
			d[1] = r[1]
		}
		if r[2] < d[2] {
			d[2] = r[2]
		}
		if r[3] < d[3] {
			d[3] = r[3]
		}
	}
	for ; i < len(dst); i++ {
		if v := rowVals[i]; v < dst[i] {
			dst[i] = v
		}
	}
}

// Value returns h_l(c).
func (s *Signatures) Value(l, c int) uint64 { return s.Vals[l*s.M+c] }

// agreement returns the number of hash indices on which columns i and j
// have identical min-hash values. Sentinel (empty-column) values never
// count as agreement, matching the convention S(∅, ∅) = 0.
func (s *Signatures) agreement(i, j int) int {
	n := 0
	for l := 0; l < s.K; l++ {
		v := s.Vals[l*s.M+i]
		if v != Empty && v == s.Vals[l*s.M+j] {
			n++
		}
	}
	return n
}

// Estimate returns Ŝ(c_i, c_j), the fraction of agreeing min-hash
// values (Definition 1).
func (s *Signatures) Estimate(i, j int) float64 {
	return float64(s.agreement(i, j)) / float64(s.K)
}

// OrColumn returns the min-hash signature of the induced column
// c_i ∨ c_j, which is the component-wise minimum of the two signatures
// (Section 7): the first row of C_i ∪ C_j under a given order is the
// smaller of the columns' first rows.
func (s *Signatures) OrColumn(i, j int, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, s.K)
	}
	for l := 0; l < s.K; l++ {
		a, b := s.Vals[l*s.M+i], s.Vals[l*s.M+j]
		if b < a {
			a = b
		}
		dst[l] = a
	}
	return dst
}

// FromPermutations computes signatures from explicit row permutations
// instead of hash values: perms[l][r] is the position of row r under
// the l-th permutation, and the signature h_l(c) is the minimum
// position over the column's rows (the paper's Example 1 formulation,
// before the hashing optimisation). Intended for tests and teaching;
// production code uses Compute.
func FromPermutations(src matrix.RowSource, perms [][]int) (*Signatures, error) {
	k := len(perms)
	if k == 0 {
		return nil, fmt.Errorf("minhash: need at least one permutation")
	}
	n := src.NumRows()
	for l, p := range perms {
		if len(p) != n {
			return nil, fmt.Errorf("minhash: permutation %d has %d entries for %d rows", l, len(p), n)
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("minhash: permutation %d is not a permutation of [0,%d)", l, n)
			}
			seen[v] = true
		}
	}
	m := src.NumCols()
	sig := &Signatures{K: k, M: m, Vals: make([]uint64, k*m)}
	for i := range sig.Vals {
		sig.Vals[i] = Empty
	}
	err := src.Scan(func(row int, cols []int32) error {
		for l := 0; l < k; l++ {
			v := uint64(perms[l][row])
			for _, c := range cols {
				p := l*m + int(c)
				if v < sig.Vals[p] {
					sig.Vals[p] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sig, nil
}

// SampleSize returns the Theorem 1 bound k >= 2 δ⁻² c⁻¹ ln(1/ε) on the
// number of min-hash values needed so that, for every pair, similarity
// >= s* >= c implies agreement >= (1-δ)s* with probability 1-ε, and
// similarity <= c implies agreement <= (1+δ)c with probability 1-ε.
func SampleSize(delta, epsilon, c float64) (int, error) {
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("minhash: delta must be in (0,1), got %v", delta)
	}
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("minhash: epsilon must be in (0,1), got %v", epsilon)
	}
	if c <= 0 || c > 1 {
		return 0, fmt.Errorf("minhash: c must be in (0,1], got %v", c)
	}
	k := 2 / (delta * delta * c) * math.Log(1/epsilon)
	return int(math.Ceil(k)), nil
}
