package serve

import (
	"strings"
	"testing"

	"assocmine"
)

// exprEval is a tiny shared evaluator for checking that parsed
// expressions evaluate like their hand-built Go counterparts.
func exprEval(t *testing.T) *assocmine.ExprEvaluator {
	t.Helper()
	d := testDataset(t, 120, 16)
	sk, err := assocmine.ComputeSketches(d, 64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return assocmine.NewExprEvaluator(sk)
}

func TestParseExprMatchesBuilders(t *testing.T) {
	ev := exprEval(t)
	cases := []struct {
		src  string
		want assocmine.BoolExpr
	}{
		{"3", assocmine.Col(3)},
		{"col(3)", assocmine.Col(3)},
		{" 3 | 4 ", assocmine.AnyOf(assocmine.Col(3), assocmine.Col(4))},
		{"any(3, 4)", assocmine.AnyOf(assocmine.Col(3), assocmine.Col(4))},
		{"3&4", assocmine.AllOf(assocmine.Col(3), assocmine.Col(4))},
		{"all(3, 4)", assocmine.AllOf(assocmine.Col(3), assocmine.Col(4))},
		{"all(3, any(4, 5))", assocmine.AllOf(assocmine.Col(3), assocmine.AnyOf(assocmine.Col(4), assocmine.Col(5)))},
		{"3 & (4 | 5)", assocmine.AllOf(assocmine.Col(3), assocmine.AnyOf(assocmine.Col(4), assocmine.Col(5)))},
		{"(3)", assocmine.Col(3)},
		{"0|1|2&3", assocmine.AnyOf(assocmine.Col(0), assocmine.Col(1), assocmine.AllOf(assocmine.Col(2), assocmine.Col(3)))},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			got, err := parseExpr(c.src, 16)
			if err != nil {
				t.Fatal(err)
			}
			// BoolExpr hides its tree; equality via evaluated cardinality.
			// (Cardinality is deterministic for a fixed sketch, so equal
			// trees give equal values; combined with the error cases below
			// this pins the parse shape.)
			gv, gerr := ev.Cardinality(got)
			wv, werr := ev.Cardinality(c.want)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("evaluability mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil && gv != wv {
				t.Fatalf("cardinality %v, want %v", gv, wv)
			}
		})
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{
		"",
		"|",
		"3|",
		"&3",
		"3 4",
		"(3",
		"3)",
		"col()",
		"col(x)",
		"any()",
		"any(3,)",
		"frob(3)",
		"16",         // out of range for numCols=16
		"9999999999", // id longer than 9 digits
		"3 && 4",
		"col(3",
	}
	for _, src := range bad {
		if _, err := parseExpr(src, 16); err == nil {
			t.Errorf("parseExpr(%q) succeeded, want error", src)
		}
	}
}

func TestParseExprHostileInputs(t *testing.T) {
	t.Run("too-long", func(t *testing.T) {
		src := "0" + strings.Repeat("|0", maxExprLen)
		if _, err := parseExpr(src, 16); err == nil {
			t.Fatal("oversized expression accepted")
		}
	})
	t.Run("too-deep", func(t *testing.T) {
		src := strings.Repeat("(", 200) + "3" + strings.Repeat(")", 200)
		if _, err := parseExpr(src, 16); err == nil {
			t.Fatal("deeply nested expression accepted")
		}
	})
	t.Run("too-many-nodes", func(t *testing.T) {
		src := "0" + strings.Repeat("|1", maxExprNodes+1)
		if _, err := parseExpr(src, 16); err == nil {
			t.Fatal("expression with too many nodes accepted")
		}
	})
	t.Run("depth-within-cap-parses", func(t *testing.T) {
		src := strings.Repeat("(", 10) + "3" + strings.Repeat(")", 10)
		if _, err := parseExpr(src, 16); err != nil {
			t.Fatalf("modest nesting rejected: %v", err)
		}
	})
}
