package assocmine

import "assocmine/internal/boolexpr"

// BoolExpr is a Boolean expression over columns, built with Col, AnyOf
// and AllOf. It supports the Section 7 "complex Boolean expressions"
// extension: cardinalities, similarities, and confidences of composite
// columns are estimated from one set of bottom-k sketches, with no
// further data passes.
//
// Structural rules (enforced at evaluation): AllOf arguments must be
// columns or AnyOf trees (a conjunction has no sketch, so it cannot
// nest), and AllOf fan-in is capped — inclusion-exclusion is
// exponential in it, the overhead the paper predicts.
type BoolExpr struct {
	e boolexpr.Expr
}

// Col references a single column.
func Col(c int) BoolExpr { return BoolExpr{e: boolexpr.Column(int32(c))} }

// AnyOf is the disjunction of its arguments.
func AnyOf(xs ...BoolExpr) BoolExpr {
	or := make(boolexpr.Or, len(xs))
	for i, x := range xs {
		or[i] = x.e
	}
	return BoolExpr{e: or}
}

// AllOf is the conjunction of its arguments.
func AllOf(xs ...BoolExpr) BoolExpr {
	and := make(boolexpr.And, len(xs))
	for i, x := range xs {
		and[i] = x.e
	}
	return BoolExpr{e: and}
}

// ExprEvaluator answers queries about Boolean column expressions from
// one sketch pass over the dataset.
type ExprEvaluator struct {
	ev *boolexpr.Evaluator
}

// NewExprEvaluator builds an evaluator over a resident bottom-k sketch
// (ComputeSketches, or Ingest.Sketches — after LoadIngest too): every
// expression query reads the sketch alone, with no data pass.
// Estimation error scales as ~1/sqrt(K).
func NewExprEvaluator(s *Sketches) *ExprEvaluator {
	return &ExprEvaluator{ev: boolexpr.NewEvaluator(s.sk)}
}

// NumCols returns the number of columns the evaluator's sketch covers.
func (e *ExprEvaluator) NumCols() int { return e.ev.NumCols() }

// Cardinality estimates the number of rows satisfying x.
func (e *ExprEvaluator) Cardinality(x BoolExpr) (float64, error) {
	return e.ev.Cardinality(x.e)
}

// Similarity estimates the Jaccard similarity of two (sketchable)
// expressions.
func (e *ExprEvaluator) Similarity(a, b BoolExpr) (float64, error) {
	return e.ev.Similarity(a.e, b.e)
}

// Confidence estimates conf(a => b) for sketchable expressions.
func (e *ExprEvaluator) Confidence(a, b BoolExpr) (float64, error) {
	return e.ev.Confidence(a.e, b.e)
}
