// Package boolexpr evaluates Boolean expressions over columns using
// only bottom-k sketches — the Section 7 extension: "Extensions to more
// than three columns and complex Boolean expressions are possible but
// will suffer from an exponential overhead in the number of columns."
//
// The machinery: the sketch of an OR of columns is the bottom-k of the
// merged sketches (exactly computable, no data pass); cardinalities of
// sketchable expressions follow from the bottom-k order statistic; and
// AND cardinalities follow by inclusion-exclusion over the ORs of
// subsets — the exponential overhead the paper predicts, which is why
// And fan-in is capped.
package boolexpr

import (
	"fmt"
	"math/bits"

	"assocmine/internal/kminhash"
)

// Expr is a Boolean expression over columns: a Column leaf, an Or, or
// an And. And children must themselves be sketchable (columns or ORs) —
// nesting And under Or or And under And is rejected by validate, since
// no sketch exists for an AND.
type Expr interface {
	isExpr()
}

// Column is a leaf referencing column c.
type Column int32

// Or is a disjunction of sub-expressions.
type Or []Expr

// And is a conjunction; its cardinality costs 2^len(And)-1 union
// estimates (inclusion-exclusion).
type And []Expr

func (Column) isExpr() {}
func (Or) isExpr()     {}
func (And) isExpr()    {}

// maxAndFanIn caps the inclusion-exclusion blowup.
const maxAndFanIn = 12

// Evaluator answers cardinality, similarity and confidence queries
// about expressions from one set of bottom-k sketches.
type Evaluator struct {
	s *kminhash.Sketches
}

// NewEvaluator wraps the sketches.
func NewEvaluator(s *kminhash.Sketches) *Evaluator {
	return &Evaluator{s: s}
}

// NumCols returns the number of columns the sketches cover.
func (e *Evaluator) NumCols() int { return len(e.s.Sigs) }

// validate checks an expression against the sketched column range and
// the structural restrictions; insideAnd is set below an And.
func (e *Evaluator) validate(x Expr, insideAnd bool) error {
	switch v := x.(type) {
	case Column:
		if v < 0 || int(v) >= len(e.s.Sigs) {
			return fmt.Errorf("boolexpr: column %d out of range [0,%d)", v, len(e.s.Sigs))
		}
		return nil
	case Or:
		if len(v) == 0 {
			return fmt.Errorf("boolexpr: empty Or")
		}
		for _, c := range v {
			if _, isAnd := c.(And); isAnd {
				return fmt.Errorf("boolexpr: And nested under Or is not sketchable")
			}
			if err := e.validate(c, insideAnd); err != nil {
				return err
			}
		}
		return nil
	case And:
		if insideAnd {
			return fmt.Errorf("boolexpr: nested And is not supported")
		}
		if len(v) == 0 {
			return fmt.Errorf("boolexpr: empty And")
		}
		if len(v) > maxAndFanIn {
			return fmt.Errorf("boolexpr: And fan-in %d exceeds cap %d (inclusion-exclusion is exponential)", len(v), maxAndFanIn)
		}
		for _, c := range v {
			if _, isAnd := c.(And); isAnd {
				return fmt.Errorf("boolexpr: nested And is not supported")
			}
			if err := e.validate(c, true); err != nil {
				return err
			}
		}
		return nil
	case nil:
		return fmt.Errorf("boolexpr: nil expression")
	default:
		return fmt.Errorf("boolexpr: unknown expression type %T", x)
	}
}

// sketch returns the bottom-k sketch of a sketchable expression
// (Column or Or tree) by merging leaf sketches.
func (e *Evaluator) sketch(x Expr) ([]uint64, error) {
	switch v := x.(type) {
	case Column:
		return e.s.Signature(int(v)), nil
	case Or:
		var merged []uint64
		for i, c := range v {
			cs, err := e.sketch(c)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				merged = append([]uint64(nil), cs...)
				continue
			}
			merged = mergeBottomK(merged, cs, e.s.K)
		}
		return merged, nil
	default:
		return nil, fmt.Errorf("boolexpr: expression %T has no sketch", x)
	}
}

// mergeBottomK returns the k smallest distinct values of two sorted
// sketches.
func mergeBottomK(a, b []uint64, k int) []uint64 {
	out := make([]uint64, 0, k)
	ai, bi := 0, 0
	for len(out) < k && (ai < len(a) || bi < len(b)) {
		switch {
		case bi >= len(b) || (ai < len(a) && a[ai] < b[bi]):
			out = append(out, a[ai])
			ai++
		case ai >= len(a) || b[bi] < a[ai]:
			out = append(out, b[bi])
			bi++
		default:
			out = append(out, a[ai])
			ai++
			bi++
		}
	}
	return out
}

// Cardinality estimates the number of rows satisfying the expression.
func (e *Evaluator) Cardinality(x Expr) (float64, error) {
	if err := e.validate(x, false); err != nil {
		return 0, err
	}
	return e.cardinality(x)
}

func (e *Evaluator) cardinality(x Expr) (float64, error) {
	switch v := x.(type) {
	case Column:
		return float64(e.s.ColSizes[v]), nil // exact
	case Or:
		sk, err := e.sketch(v)
		if err != nil {
			return 0, err
		}
		return kminhash.EstimateCardinality(sk, e.s.K), nil
	case And:
		// Inclusion-exclusion: |∩ e_i| = Σ_{∅≠S} (-1)^{|S|+1} |∪_{i∈S} e_i|.
		n := len(v)
		total := 0.0
		for mask := 1; mask < 1<<n; mask++ {
			var parts Or
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					parts = append(parts, v[i])
				}
			}
			var card float64
			if len(parts) == 1 {
				c, err := e.cardinality(parts[0])
				if err != nil {
					return 0, err
				}
				card = c
			} else {
				sk, err := e.sketch(parts)
				if err != nil {
					return 0, err
				}
				card = kminhash.EstimateCardinality(sk, e.s.K)
			}
			if bits.OnesCount(uint(mask))%2 == 1 {
				total += card
			} else {
				total -= card
			}
		}
		if total < 0 {
			total = 0
		}
		return total, nil
	default:
		return 0, fmt.Errorf("boolexpr: unknown expression type %T", x)
	}
}

// Similarity estimates the Jaccard similarity of two sketchable
// expressions (Columns or Ors): |a∧b| by inclusion-exclusion over
// merged sketches, divided by |a∨b|.
func (e *Evaluator) Similarity(a, b Expr) (float64, error) {
	for _, x := range []Expr{a, b} {
		if err := e.validate(x, false); err != nil {
			return 0, err
		}
		if _, isAnd := x.(And); isAnd {
			return 0, fmt.Errorf("boolexpr: similarity of And expressions is not supported")
		}
	}
	ca, err := e.cardinality(a)
	if err != nil {
		return 0, err
	}
	cb, err := e.cardinality(b)
	if err != nil {
		return 0, err
	}
	union, err := e.cardinality(Or{a, b})
	if err != nil {
		return 0, err
	}
	if union <= 0 {
		return 0, nil
	}
	inter := ca + cb - union
	if inter < 0 {
		inter = 0
	}
	s := inter / union
	if s > 1 {
		s = 1
	}
	return s, nil
}

// Confidence estimates conf(a => b) = |a∧b| / |a| for sketchable a, b.
func (e *Evaluator) Confidence(a, b Expr) (float64, error) {
	for _, x := range []Expr{a, b} {
		if err := e.validate(x, false); err != nil {
			return 0, err
		}
		if _, isAnd := x.(And); isAnd {
			return 0, fmt.Errorf("boolexpr: confidence over And expressions is not supported")
		}
	}
	ca, err := e.cardinality(a)
	if err != nil {
		return 0, err
	}
	if ca <= 0 {
		return 0, nil
	}
	cb, err := e.cardinality(b)
	if err != nil {
		return 0, err
	}
	union, err := e.cardinality(Or{a, b})
	if err != nil {
		return 0, err
	}
	inter := ca + cb - union
	if inter < 0 {
		inter = 0
	}
	conf := inter / ca
	if conf > 1 {
		conf = 1
	}
	return conf, nil
}
