package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricNames is every Counter*/Gauge* constant declared in obs.go,
// keyed by its value.
func metricNames(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "obs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Counter") && !strings.HasPrefix(id.Name, "Gauge") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names[v] = id.Name
			}
		}
	}
	return names
}

// TestMetricNamesDocumented: every counter and gauge has a row in
// docs/ALGORITHMS.md's "Counter / gauge" table, and every name a row
// gives in its first cell is a counter or gauge.
func TestMetricNamesDocumented(t *testing.T) {
	names := metricNames(t)
	if len(names) == 0 {
		t.Fatal("no Counter*/Gauge* constants found in obs.go")
	}
	doc, err := os.ReadFile("../../docs/ALGORITHMS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n| Counter / gauge |")
	if !ok {
		t.Fatal(`docs/ALGORITHMS.md has no "Counter / gauge" table`)
	}
	code := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell := strings.SplitN(line, "|", 3)[1]
		ms := code.FindAllStringSubmatch(cell, -1)
		if len(ms) == 0 {
			t.Errorf("row names no counter or gauge: %s", cell)
		}
		for _, m := range ms {
			if _, ok := names[m[1]]; !ok {
				t.Errorf("row names %q, which is no Counter*/Gauge* constant", m[1])
			}
			documented[m[1]] = true
		}
	}
	for v, name := range names {
		if !documented[v] {
			t.Errorf("%s (%q) has no row in the Counter / gauge table", name, v)
		}
	}
}
