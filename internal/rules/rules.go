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

	"assocmine/internal/measures"
	"assocmine/internal/minhash"
)

// Rule is a directed candidate rule From => To with estimated and
// (after verification) exact confidence.
type Rule struct {
	From, To int32
	Estimate float64 // signature-based confidence estimate
	Exact    float64 // verified confidence
}

// Options configures candidate-rule generation.
type Options struct {
	// MinConfidence is the confidence threshold.
	MinConfidence float64
	// MinAgreement discards pairs agreeing on fewer min-hash values
	// (both estimator numerator and denominator are noisy for tiny
	// agreement counts). Defaults to 2 when zero.
	MinAgreement int
}

func (o *Options) validate() error {
	if o.MinConfidence <= 0 || o.MinConfidence > 1 {
		return fmt.Errorf("rules: MinConfidence must be in (0,1], got %v", o.MinConfidence)
	}
	if o.MinAgreement == 0 {
		o.MinAgreement = 2
	}
	if o.MinAgreement < 0 {
		return fmt.Errorf("rules: MinAgreement must be non-negative")
	}
	return nil
}

// Candidates runs the extended Row-Sorting estimation of Section 6 over
// an MH signature matrix: for every ordered pair it needs the agreement
// count and the h(c_i) <= h(c_j) count, and estimates confidence as
// their ratio. As the paper notes, this enumeration is O(k·m²); the
// agreement pre-filter keeps the emitted set small. Each column's row
// of the sweep is filtered as it completes, so the run holds O(m) beside
// its rules; a cancelled ctx (nil: Background) fails it with ctx.Err().
func Candidates(ctx context.Context, sig *minhash.Signatures, opt Options) ([]Rule, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var out []Rule
	if err := sweep(ctx, sig, func(i int, row []cell) { out = opt.filter(out, i, row) }); err != nil {
		return nil, err
	}
	sortRules(out)
	return out, nil
}

// cell is the sweep's count for one unordered pair (i, j), i < j: the
// rows where the values agree, and where i's (fwd) or j's (rev) is the
// smaller or equal one.
type cell struct{ agree, fwd, rev int32 }

// Triangle is the sweep kept whole — the half of Candidates no Options
// field touches: 12 bytes per unordered pair, column i's cells against
// every j > i adjacent.
type Triangle struct {
	m     int
	cells []cell
}

// TriangleBytes is the size of the Triangle over m columns.
func TriangleBytes(m int) int64 { return int64(m) * int64(m-1) / 2 * 12 }

// Sweep runs the O(k·m²) pass once and keeps every pair's counts.
func Sweep(ctx context.Context, sig *minhash.Signatures) (*Triangle, error) {
	t := &Triangle{m: sig.M, cells: make([]cell, 0, sig.M*(sig.M-1)/2)}
	if err := sweep(ctx, sig, func(_ int, row []cell) { t.cells = append(t.cells, row...) }); err != nil {
		return nil, err
	}
	return t, nil
}

// Rules is Candidates answered from the kept sweep in O(m²): the same
// rules in the same order, Estimate bit for Estimate bit.
func (t *Triangle) Rules(opt Options) ([]Rule, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var out []Rule
	for i, at := 0, 0; i < t.m; i++ {
		n := t.m - i - 1
		out = opt.filter(out, i, t.cells[at:at+n])
		at += n
	}
	sortRules(out)
	return out, nil
}

// filter appends the rules of column i's row — the pairs (i, j), j > i
// — that pass the options, both directions of each.
func (o Options) filter(out []Rule, i int, row []cell) []Rule {
	emit := func(from, to int, agree, le int32) {
		if int(agree) < o.MinAgreement || le == 0 {
			return
		}
		conf := float64(agree) / float64(le)
		if conf > 1 {
			conf = 1
		}
		if conf >= o.MinConfidence {
			out = append(out, Rule{From: int32(from), To: int32(to), Estimate: conf})
		}
	}
	for d, c := range row {
		j := i + 1 + d
		emit(i, j, c.agree, c.fwd)
		emit(j, i, c.agree, c.rev)
	}
	return out
}

// sweep is the threshold-free pass. It is row-major and visits each
// unordered pair once: for a column i, one pass down the k signature
// rows accumulates, for every j > i at once, agree[j] (rows where the
// two values are equal and not Empty) and lt[j] (rows where i's value
// is the smaller — Empty is the largest value, so such a value is never
// Empty). Both directions follow: over the ki rows where i is not Empty,
//
//	le(i→j) = lt + agree
//	le(j→i) = ki − lt, plus the rows where i is Empty and j is not,
//
// the second because h(c_j) <= h(c_i) is exactly "not h(c_i) < h(c_j)"
// on a row where c_i has a value. (An all-empty column agrees with
// nothing: its cells pass no filter.) Column i's finished row goes to
// each, which must not keep it; ctx is checked once per column.
func sweep(ctx context.Context, sig *minhash.Signatures, each func(i int, row []cell)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	k, m := sig.K, sig.M
	agree := make([]int32, m)
	lt := make([]int32, m)
	below := make([]int32, m) // rows where i is Empty and j is not
	row := make([]cell, m)
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		clear(agree[i+1:])
		clear(lt[i+1:])
		clear(below[i+1:])
		ki := int32(0)
		for l := 0; l < k; l++ {
			vals := sig.Vals[l*m : (l+1)*m]
			vi := vals[i]
			if vi == minhash.Empty {
				for j := i + 1; j < m; j++ {
					if vals[j] != minhash.Empty {
						below[j]++
					}
				}
				continue
			}
			ki++
			for j := i + 1; j < m; j++ {
				vj := vals[j]
				if vi == vj { // rare, so predicted; which of two values is smaller is not
					agree[j]++
				}
				_, less := bits.Sub64(vi, vj, 0)
				lt[j] += int32(less)
			}
		}
		for j := i + 1; j < m; j++ {
			row[j-i-1] = cell{agree: agree[j], fwd: lt[j] + agree[j], rev: ki - lt[j] + below[j]}
		}
		each(i, row[:m-i-1])
	}
	return nil
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
