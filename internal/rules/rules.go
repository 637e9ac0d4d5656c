// Package rules implements the extension of Section 6 — mining
// high-confidence association rules c_i => c_j without any support
// requirement — and the composite-rule machinery of Section 7
// (disjunctive consequents via OR-composed signatures, conjunctive
// consequents via the cardinality argument).
//
// The key identity is
//
//	conf(c_i => c_j) = |C_i ∩ C_j| / |C_i| = S(c_i,c_j) · |C_i ∪ C_j| / |C_i|,
//
// and Pr[h(c_i) <= h(c_j)] = |C_i| / |C_i ∪ C_j| for a random row-order
// hash h, so both factors are estimable from the same min-hash matrix:
// confidence ≈ (agreement fraction) / (<= fraction).
package rules

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"assocmine/internal/candidate"
	"assocmine/internal/fold"
	"assocmine/internal/measures"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// Rule is a directed candidate rule From => To with estimated and
// (after verification) exact confidence.
type Rule struct {
	From, To int32
	Estimate float64 // signature-based confidence estimate
	Exact    float64 // verified confidence
}

// minAgree is the fewest signature rows a pair must agree in to yield
// a rule: below it both the estimator's numerator and its denominator
// are noise.
const minAgree = 2

// Table is Section 6's extended Row-Sorting pass kept whole: the counts
// of every pair of columns whose values agree in at least minAgree
// signature rows — the only pairs a rule can come from — 20 bytes a
// pair. It depends on the sketch alone, so one Table answers every
// confidence threshold.
type Table struct{ cells []cell }

// cell is one unordered pair (i, j), i < j: the rows where the two
// values agree, and where i's (fwd) or j's (rev) is the smaller or
// equal one and not Empty.
type cell struct{ i, j, agree, fwd, rev int32 }

// TableBytes bounds the size of the Table over ix without counting: a
// pair that agrees a times holds a of ix's agreements, so at most half
// of them go to pairs agreeing twice.
func TableBytes(ix *candidate.Index) int64 { return ix.Agreements() / minAgree * 20 }

// NewTable runs the pass over sig, whose MH run index is ix. As in
// §3.1's Row-Sorting its cost follows what the columns agree on: the MH
// kernel at the floor of minAgree rows finds the pairs across workers
// goroutines, and only those are counted over the k rows. A cancelled
// ctx (nil: Background) fails it with ctx.Err().
func NewTable(ctx context.Context, sig *minhash.Signatures, ix *candidate.Index, workers int) (*Table, error) {
	if sig.K < minAgree { // no pair can agree twice, and the floor is no cutoff
		return &Table{}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	k, err := ix.Kernel(candidate.Params{Algo: fold.MinHash, K: sig.K, Threshold: minAgree / float64(sig.K)})
	if err != nil {
		return nil, err
	}
	// At most half the agreements go to pairs agreeing twice: one
	// allocation holds the scan's output, not a chain of regrowths.
	agreeing, _, err := k.Scan(ctx, make([]pairs.Scored, 0, ix.Agreements()/minAgree), workers, nil)
	if err != nil {
		return nil, err
	}
	return count(ctx, sig, agreeing)
}

// count fills the table's cells for the agreeing pairs, whose Estimate
// is agree/k. Over the rows, with Empty the largest value,
//
//	fwd = agree + rows where i's value is below j's
//	rev = agree + rows where j's value is below i's
//
// (a value below another is never Empty). Each pair walks two columns of
// a column-major copy of the sketch, without a branch: which of two
// values is smaller is not predictable. ctx is checked every 4096 pairs.
func count(ctx context.Context, sig *minhash.Signatures, agreeing []pairs.Scored) (*Table, error) {
	k, m := sig.K, sig.M
	cols := make([]uint64, k*m)
	for l := 0; l < k; l++ {
		for c, v := range sig.Vals[l*m : (l+1)*m] {
			cols[c*k+l] = v
		}
	}
	t := &Table{cells: make([]cell, len(agreeing))}
	for n, p := range agreeing {
		if n%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		lt, gt := below(cols[int(p.I)*k:(int(p.I)+1)*k], cols[int(p.J)*k:(int(p.J)+1)*k])
		agree := int32(math.Round(p.Estimate * float64(k)))
		t.cells[n] = cell{i: p.I, j: p.J, agree: agree, fwd: agree + lt, rev: agree + gt}
	}
	return t, nil
}

// below counts the rows where a's value is below b's (lt) and where b's
// is below a's (gt), as borrows.
func below(a, b []uint64) (lt, gt int32) {
	b = b[:len(a)]
	var x, y uint64
	for l, va := range a {
		_, bx := bits.Sub64(va, b[l], 0)
		_, by := bits.Sub64(b[l], va, 0)
		x += bx
		y += by
	}
	return int32(x), int32(y)
}

// Rules is the rules of estimated confidence at least minConf, both
// directions of each pair, by decreasing Estimate, then From, then To.
// The estimate of I => J is agree / (rows where I's value is not Empty
// and at most J's): at least agree, so it is at most 1.
func (t *Table) Rules(minConf float64) ([]Rule, error) {
	if minConf <= 0 || minConf > 1 {
		return nil, fmt.Errorf("rules: confidence must be in (0,1], got %v", minConf)
	}
	var out []Rule
	emit := func(from, to, agree, le int32) {
		if conf := float64(agree) / float64(le); conf >= minConf {
			out = append(out, Rule{From: from, To: to, Estimate: conf})
		}
	}
	for _, c := range t.cells {
		emit(c.i, c.j, c.agree, c.fwd)
		emit(c.j, c.i, c.agree, c.rev)
	}
	sortRules(out)
	return out, nil
}

// Confidence is the measure phase 3 verifies a rule I => J by, over
// the directed pair's counts (A = |C_I|): |C_I ∩ C_J| / |C_I|, and NaN —
// which passes no threshold — when the antecedent never occurs.
func Confidence(c measures.Counts) float64 {
	if c.A == 0 {
		return math.NaN()
	}
	return c.Confidence()
}

func sortRules(rs []Rule) {
	slices.SortFunc(rs, func(a, b Rule) int {
		return cmp.Or(cmp.Compare(b.Estimate, a.Estimate), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
}
