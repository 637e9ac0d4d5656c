package minhash

import (
	"fmt"
	"testing"

	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// TestPaperExample1 reproduces Example 1 of the paper verbatim: the 4x3
// matrix, the two explicit permutations π1 and π2, the resulting M̂, and
// the similarity estimates Ŝ(c1,c2)=1, Ŝ(c1,c3)=0, Ŝ(c2,c3)=0 against
// the true S(c1,c2)=2/3, S(c1,c3)=0, S(c2,c3)=1/4.
func TestPaperExample1(t *testing.T) {
	m := testutil.Must(matrix.New(4, [][]int32{
		{0, 1},    // c1: rows r1, r2
		{0, 1, 2}, // c2: rows r1, r2, r3
		{2, 3},    // c3: rows r3, r4
	}))
	// π1 = {1→3, 2→1, 3→2, 4→4}, π2 = {1→2, 2→4, 3→3, 4→1}; the paper
	// numbers rows and positions from 1, we from 0.
	perms := [][]int{
		{2, 0, 1, 3},
		{1, 3, 2, 0},
	}
	sig, err := fromPermutations(m.Stream(), perms)
	if err != nil {
		t.Fatal(err)
	}
	// The paper records M̂ as the *row index* of the argmin (M̂ =
	// [[2,2,3],[1,1,4]] in its 1-based notation); this implementation
	// records the min *position*, which identifies the same argmin row
	// (permutations are injective), so agreements — and hence Ŝ — are
	// identical. Expected positions, 0-based:
	//   π1: r0→2 r1→0 r2→1 r3→3  =>  c1:min(2,0)=0  c2:0  c3:min(1,3)=1
	//   π2: r0→1 r1→3 r2→2 r3→0  =>  c1:min(1,3)=1  c2:1  c3:min(2,0)=0
	want := [][]uint64{
		{0, 0, 1}, // h1 row (argmins r2, r2, r3 — the paper's 2, 2, 3)
		{1, 1, 0}, // h2 row (argmins r1, r1, r4 — the paper's 1, 1, 4)
	}
	for l := range want {
		for c := range want[l] {
			if got := sig.Vals[l*sig.M+c]; got != want[l][c] {
				t.Errorf("M̂[%d][c%d] = %d, want %d", l+1, c+1, got, want[l][c])
			}
		}
	}
	// Ŝ values from the paper.
	if got := sig.Estimate(0, 1); got != 1 {
		t.Errorf("Ŝ(c1,c2) = %v, want 1", got)
	}
	if got := sig.Estimate(0, 2); got != 0 {
		t.Errorf("Ŝ(c1,c3) = %v, want 0", got)
	}
	if got := sig.Estimate(1, 2); got != 0 {
		t.Errorf("Ŝ(c2,c3) = %v, want 0", got)
	}
}

func TestFromPermutationsValidation(t *testing.T) {
	m := testutil.Must(matrix.New(3, [][]int32{{0, 1}}))
	bad := [][][]int{
		{},                     // no permutations
		{{0, 1}},               // wrong length
		{{0, 1, 1}},            // duplicate
		{{0, 1, 5}},            // out of range
		{{0, 1, 2}, {0, 0, 0}}, // second perm invalid
	}
	for i, perms := range bad {
		if _, err := fromPermutations(m.Stream(), perms); err == nil {
			t.Errorf("bad perms %d accepted", i)
		}
	}
}

// TestFromPermutationsMatchesHashOrder: signatures from an explicit
// permutation must equal signatures from any hash function inducing
// the same row order.
func TestFromPermutationsMatchesHashOrder(t *testing.T) {
	m := testutil.Must(matrix.New(5, [][]int32{
		{0, 2, 4},
		{1, 2},
		{3},
	}))
	perm := []int{4, 2, 0, 3, 1}
	sig, err := fromPermutations(m.Stream(), [][]int{perm})
	if err != nil {
		t.Fatal(err)
	}
	// Agreement pattern must match a direct min-position computation.
	for c := 0; c < 3; c++ {
		want := uint64(1 << 62)
		for _, r := range m.Column(c) {
			if v := uint64(perm[r]); v < want {
				want = v
			}
		}
		if got := sig.Vals[c]; got != want {
			t.Errorf("column %d: %d, want %d", c, got, want)
		}
	}
}

// fromPermutations computes signatures from explicit row permutations
// instead of hash values: perms[l][r] is the position of row r under
// the l-th permutation, and the signature h_l(c) is the minimum
// position over the column's rows (the paper's Example 1 formulation,
// before the hashing optimisation).
// It is the oracle of Example 1 and of Theorem 1's law; production code
// uses Compute.
func fromPermutations(src matrix.RowSource, perms [][]int) (*Signatures, error) {
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
