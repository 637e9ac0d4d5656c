package boolexpr

import (
	"math"
	"slices"
	"testing"

	"assocmine/internal/fold"
	"assocmine/internal/hashing"
	"assocmine/internal/kminhash"
	"assocmine/internal/matrix"
	"assocmine/internal/testutil"
)

// fixture builds a matrix where exact expression cardinalities are easy
// to compute by materialising the column sets.
func fixture(t *testing.T, rows int, seed uint64) (*matrix.Matrix, *Evaluator) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	b := matrix.NewBuilder(rows, 5)
	for r := 0; r < rows; r++ {
		if rng.Float64() < 0.20 {
			b.Set(r, 0)
		}
		if rng.Float64() < 0.15 {
			b.Set(r, 1)
		}
		if rng.Float64() < 0.10 {
			b.Set(r, 2)
		}
		// Column 3 overlaps heavily with 0.
		if rng.Float64() < 0.18 {
			b.Set(r, 0)
			b.Set(r, 3)
		}
		if rng.Float64() < 0.02 {
			b.Set(r, 4)
		}
	}
	m := b.Build()
	s, err := kmhSketch(m.Stream(), 256, seed^0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	return m, NewEvaluator(s)
}

// exactCardinality materialises the expression against the matrix.
func exactCardinality(m *matrix.Matrix, x Expr) int {
	return len(materialise(m, x))
}

func materialise(m *matrix.Matrix, x Expr) []int32 {
	switch v := x.(type) {
	case Column:
		return m.Column(int(v))
	case Or:
		out := materialise(m, v[0])
		for _, c := range v[1:] {
			out = orRows(out, materialise(m, c))
		}
		return out
	case And:
		out := materialise(m, v[0])
		for _, c := range v[1:] {
			out = andRows(out, materialise(m, c))
		}
		return out
	}
	return nil
}

func TestValidate(t *testing.T) {
	_, e := fixture(t, 500, 1)
	bad := []Expr{
		nil,
		Column(9),
		Column(-1),
		Or{},
		And{},
		Or{And{Column(0), Column(1)}},      // And under Or
		And{And{Column(0), Column(1)}},     // nested And
		And{Column(0), Or{And{Column(1)}}}, // And under Or under And
		longAnd(maxAndFanIn + 1),
	}
	for i, x := range bad {
		if err := e.validate(x, false); err == nil {
			t.Errorf("bad expression %d accepted: %#v", i, x)
		}
	}
	good := []Expr{
		Column(0),
		Or{Column(0), Column(1)},
		Or{Column(0), Or{Column(1), Column(2)}},
		And{Column(0), Column(1)},
		And{Or{Column(0), Column(1)}, Column(2)},
	}
	for i, x := range good {
		if err := e.validate(x, false); err != nil {
			t.Errorf("good expression %d rejected: %v", i, err)
		}
	}
}

func longAnd(n int) And {
	var a And
	for i := 0; i < n; i++ {
		a = append(a, Column(0))
	}
	return a
}

func TestColumnCardinalityExact(t *testing.T) {
	m, e := fixture(t, 2000, 2)
	for c := 0; c < 5; c++ {
		got, err := e.Cardinality(Column(c))
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(m.ColumnSize(c)) {
			t.Errorf("column %d cardinality %v, want %d", c, got, m.ColumnSize(c))
		}
	}
}

func TestOrCardinality(t *testing.T) {
	m, e := fixture(t, 20000, 3)
	exprs := []Expr{
		Or{Column(0), Column(1)},
		Or{Column(0), Column(1), Column(2)},
		Or{Column(0), Or{Column(1), Column(2)}, Column(4)},
	}
	for _, x := range exprs {
		want := float64(exactCardinality(m, x))
		got, err := e.Cardinality(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("expr %#v: cardinality %v, want ~%v", x, got, want)
		}
	}
}

func TestAndCardinality(t *testing.T) {
	m, e := fixture(t, 20000, 4)
	// Columns 0 and 3 overlap heavily: the AND is large enough for the
	// IE estimate to be stable.
	x := And{Column(0), Column(3)}
	want := float64(exactCardinality(m, x))
	got, err := e.Cardinality(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("AND cardinality %v, want ~%v", got, want)
	}
	// Three-way AND with an OR child.
	x2 := And{Column(0), Or{Column(3), Column(1)}}
	want2 := float64(exactCardinality(m, x2))
	got2, err := e.Cardinality(x2)
	if err != nil {
		t.Fatal(err)
	}
	if want2 > 100 && math.Abs(got2-want2)/want2 > 0.3 {
		t.Errorf("AND-of-OR cardinality %v, want ~%v", got2, want2)
	}
}

func TestSimilarityExpr(t *testing.T) {
	m, e := fixture(t, 20000, 5)
	a := Column(0)
	b := Or{Column(3), Column(1)}
	inter := float64(len(andRows(materialise(m, a), materialise(m, b))))
	union := float64(len(orRows(materialise(m, a), materialise(m, b))))
	want := inter / union
	got, err := e.Similarity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.1 {
		t.Errorf("similarity %v, want ~%v", got, want)
	}
	if _, err := e.Similarity(And{Column(0), Column(1)}, Column(2)); err == nil {
		t.Error("similarity of And accepted")
	}
}

func TestConfidenceExpr(t *testing.T) {
	// The sketch-based confidence inherits the union estimator's
	// relative error scaled by |consequent|/|antecedent|, so average
	// over several sketch seeds.
	var m *matrix.Matrix
	const trials = 12
	var sum, sumOr float64
	for trial := 0; trial < trials; trial++ {
		var e *Evaluator
		m, e = fixture(t, 20000, 600+uint64(trial))
		got, err := e.Confidence(Column(3), Column(0))
		if err != nil {
			t.Fatal(err)
		}
		sum += got
		gotOr, err := e.Confidence(Column(3), Or{Column(0), Column(1)})
		if err != nil {
			t.Fatal(err)
		}
		sumOr += gotOr
	}
	want := confidence(m, 3, 0) // ~1 by construction on every seed
	got := sum / trials
	if math.Abs(got-want) > 0.08 {
		t.Errorf("mean confidence %v, want ~%v", got, want)
	}
	// Disjunctive consequent: conf(c3 => c0 ∨ c1) >= conf(c3 => c0)
	// on average.
	if sumOr/trials < got-0.05 {
		t.Errorf("widening the consequent lowered confidence: %v < %v", sumOr/trials, got)
	}
	// Empty antecedent.
	m2 := testutil.Must(matrix.New(4, [][]int32{{}, {0}}))
	s2, _ := kmhSketch(m2.Stream(), 4, 1)
	e2 := NewEvaluator(s2)
	if c, err := e2.Confidence(Column(0), Column(1)); err != nil || c != 0 {
		t.Errorf("empty antecedent confidence = %v, %v", c, err)
	}
}

// TestQuickRandomOrExpressions: random OR-only expressions must
// estimate cardinality within sketch tolerance of the materialised
// truth.
func TestQuickRandomOrExpressions(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		m, e := fixture(t, 15000, 100+seed)
		next := testutil.SplitMix64(seed * 31)
		// Build a random OR tree over 2-4 columns.
		n := 2 + int(next()%3)
		var expr Or
		for i := 0; i < n; i++ {
			expr = append(expr, Column(int32(next()%5)))
		}
		want := float64(exactCardinality(m, expr))
		got, err := e.Cardinality(expr)
		if err != nil {
			t.Fatal(err)
		}
		if want > 200 && math.Abs(got-want)/want > 0.25 {
			t.Errorf("seed %d expr %#v: cardinality %v, want ~%v", seed, expr, got, want)
		}
	}
}

func TestMergeBottomK(t *testing.T) {
	a := []uint64{1, 4, 9}
	b := []uint64{2, 4, 8, 10}
	got := mergeBottomK(a, b, 4)
	want := []uint64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("merge = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

// kmhSketch folds src into the bottom-k sketch of every column through
// phase 1's own fold, on one worker.
func kmhSketch(src matrix.RowSource, k int, seed uint64) (*kminhash.Sketches, error) {
	f, _ := fold.For(fold.KMinHash)
	st, err := f.New(src.NumCols(), k, seed)
	if err != nil {
		return nil, err
	}
	if _, err := fold.FoldStream(src, st, 1); err != nil {
		return nil, err
	}
	return st.Finish().KMH, nil
}

// orRows is the sorted row set of the induced column a ∨ b (Section 7),
// freshly allocated.
func orRows(a, b []int32) []int32 {
	or := slices.Concat(a, b)
	slices.Sort(or)
	return slices.Compact(or)
}

// andRows is the sorted row set of the induced column a ∧ b; nil when
// it is empty.
func andRows(a, b []int32) []int32 {
	var and []int32
	for _, r := range a {
		if _, ok := slices.BinarySearch(b, r); ok {
			and = append(and, r)
		}
	}
	return and
}

// confidence is the exact confidence of the rule i => j, |C_i ∩ C_j| / |C_i|.
func confidence(m *matrix.Matrix, i, j int) float64 {
	return float64(m.IntersectSize(i, j)) / float64(m.ColumnSize(i))
}
