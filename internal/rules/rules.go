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
	"fmt"
	"math/bits"
	"slices"

	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
)

// Rule is a directed candidate rule From => To with estimated and
// (after verification) exact confidence.
type Rule struct {
	From, To int32
	Estimate float64 // signature-based confidence estimate
	Exact    float64 // verified confidence; set by Verify
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
// agreement pre-filter keeps the emitted set small.
//
// The sweep is row-major and visits each unordered pair once: for a
// column i, one pass down the k signature rows accumulates, for every
// j > i at once, agree[j] (rows where the two values are equal and not
// Empty) and lt[j] (rows where i's value is the smaller — Empty is the
// largest value, so such a value is never Empty). Both directions
// follow: over the ki rows where i is not Empty,
//
//	le(i→j) = lt + agree
//	le(j→i) = ki − lt, plus the rows where i is Empty and j is not,
//
// the second because h(c_j) <= h(c_i) is exactly "not h(c_i) < h(c_j)"
// on a row where c_i has a value.
func Candidates(sig *minhash.Signatures, opt Options) ([]Rule, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	k, m := sig.K, sig.M
	var out []Rule
	emit := func(from, to int, agree, le int32) {
		if int(agree) < opt.MinAgreement || le == 0 {
			return
		}
		conf := float64(agree) / float64(le)
		if conf > 1 {
			conf = 1
		}
		if conf >= opt.MinConfidence {
			out = append(out, Rule{From: int32(from), To: int32(to), Estimate: conf})
		}
	}
	agree := make([]int32, m)
	lt := make([]int32, m)
	below := make([]int32, m) // rows where i is Empty and j is not
	for i := 0; i < m; i++ {
		clear(agree[i+1:])
		clear(lt[i+1:])
		clear(below[i+1:])
		ki := int32(0)
		for l := 0; l < k; l++ {
			row := sig.Vals[l*m : (l+1)*m]
			vi := row[i]
			if vi == minhash.Empty {
				for j := i + 1; j < m; j++ {
					if row[j] != minhash.Empty {
						below[j]++
					}
				}
				continue
			}
			ki++
			for j := i + 1; j < m; j++ {
				vj := row[j]
				if vi == vj { // rare, so predicted; which of two values is smaller is not
					agree[j]++
				}
				_, less := bits.Sub64(vi, vj, 0)
				lt[j] += int32(less)
			}
		}
		if ki == 0 {
			continue // an all-empty column agrees with nothing, in either direction
		}
		for j := i + 1; j < m; j++ {
			emit(i, j, agree[j], lt[j]+agree[j])
			emit(j, i, agree[j], ki-lt[j]+below[j])
		}
	}
	sortRules(out)
	return out, nil
}

// Verify makes one pass over the data computing the exact confidence of
// each candidate rule and keeps those meeting minConf. Both |C_i ∩ C_j|
// and |C_i| are counted in the same pass.
func Verify(src matrix.RowSource, cand []Rule, minConf float64) ([]Rule, error) {
	if minConf <= 0 || minConf > 1 {
		return nil, fmt.Errorf("rules: minConf must be in (0,1], got %v", minConf)
	}
	m := src.NumCols()
	for _, r := range cand {
		if r.From == r.To || r.From < 0 || r.To < 0 || int(r.From) >= m || int(r.To) >= m {
			return nil, fmt.Errorf("rules: invalid rule %d => %d", r.From, r.To)
		}
	}
	// Each directed rule once (its first occurrence), and the distinct
	// undirected pairs behind them, sorted by key: a rule finds its
	// pair's counter by binary search.
	rs := slices.Clone(cand)
	slices.SortStableFunc(rs, func(a, b Rule) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	rs = slices.CompactFunc(rs, func(a, b Rule) bool { return a.From == b.From && a.To == b.To })
	keys := make([]uint64, len(rs))
	for i, r := range rs {
		keys[i] = pairs.Make(r.From, r.To).Key()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	pairsOf := make([][]int32, m)
	for idx, key := range keys {
		p := pairs.FromKey(key)
		pairsOf[p.I] = append(pairsOf[p.I], int32(idx))
		pairsOf[p.J] = append(pairsOf[p.J], int32(idx))
	}
	inter := make([]int32, len(keys))
	lastRow := make([]int32, len(keys))
	for i := range lastRow {
		lastRow[i] = -1
	}
	colSize := make([]int32, m)
	err := src.Scan(func(row int, cols []int32) error {
		r := int32(row)
		for _, c := range cols {
			colSize[c]++
			for _, idx := range pairsOf[c] {
				if lastRow[idx] == r {
					inter[idx]++
				} else {
					lastRow[idx] = r
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Rule
	for _, r := range rs {
		if colSize[r.From] == 0 {
			continue
		}
		idx, _ := slices.BinarySearch(keys, pairs.Make(r.From, r.To).Key())
		conf := float64(inter[idx]) / float64(colSize[r.From])
		if conf >= minConf {
			r.Exact = conf
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b Rule) int {
		return cmp.Or(cmp.Compare(b.Exact, a.Exact), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out, nil
}

func sortRules(rs []Rule) {
	slices.SortFunc(rs, func(a, b Rule) int {
		return cmp.Or(cmp.Compare(b.Estimate, a.Estimate), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
}
