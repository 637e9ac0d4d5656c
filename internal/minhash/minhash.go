// Package minhash implements the MH scheme of Section 3: k independent
// min-hash values per column, computed in a single streaming pass using
// O(mk) memory.
//
// By Proposition 1, for one random row order Prob[h(c_i) = h(c_j)] =
// S(c_i, c_j); the matrix of k independent min-hash values is therefore
// a compact sketch whose per-pair agreement fraction — the estimator Ŝ
// of Definition 1, which internal/candidate counts — concentrates
// around the true similarity.
package minhash

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

// foldMinMax lowers each dst[l] to rowVals[l] when smaller and returns
// the largest of the lowered dst, the column's new ceiling. This is the
// hot inner loop of the signature pass: dst is one column's contiguous
// minima, so the sweep is a straight run over cached words, unrolled by
// four with the bounds checks hoisted and branch-free min/max.
func foldMinMax(dst, rowVals []uint64) uint64 {
	rowVals = rowVals[:len(dst)]
	hi := uint64(0)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, r := dst[i:i+4:i+4], rowVals[i:i+4:i+4]
		d0, d1, d2, d3 := min(d[0], r[0]), min(d[1], r[1]), min(d[2], r[2]), min(d[3], r[3])
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
		hi = max(hi, max(d0, d1), max(d2, d3))
	}
	for ; i < len(dst); i++ {
		d := min(dst[i], rowVals[i])
		dst[i] = d
		hi = max(hi, d)
	}
	return hi
}
