package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzLine is one run of the Makefile's fuzz target: `$(GO) test <pkg>
// -fuzz <Name> ...`.
var fuzzLine = regexp.MustCompile(`^\t\$\(GO\) test (\S+) -fuzz (\S+)`)

// TestFuzzTargetListsEveryFuzzer: the Makefile's fuzz target runs every
// func Fuzz* of the module (bench/ excluded: it is the benchmark's own
// module), each in its own package, and names no fuzzer that does not
// exist — so a fuzzer added, moved or deleted cannot drift from the
// target.
func TestFuzzTargetListsEveryFuzzer(t *testing.T) {
	root := moduleRoot(t)
	have := map[string]bool{} // "<./pkg> <Name>"
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(rel)
		if rel == "." {
			pkg = "."
		}
		for _, name := range fuzzers(f) {
			have[pkg+" "+name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(have) == 0 {
		t.Fatal("found no fuzzers: the sweep is broken")
	}

	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	inTarget := false
	for _, line := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz:"):
			inTarget = true
		case inTarget && !strings.HasPrefix(line, "\t"):
			inTarget = false
		case inTarget:
			if m := fuzzLine.FindStringSubmatch(line); m != nil {
				listed[m[1]+" "+m[2]] = true
			}
		}
	}
	for _, k := range sorted(have) {
		if !listed[k] {
			t.Errorf("fuzzer %s has no `$(GO) test %s -fuzz %s` line in the Makefile's fuzz target", k, strings.Fields(k)[0], strings.Fields(k)[1])
		}
	}
	for _, k := range sorted(listed) {
		if !have[k] {
			t.Errorf("the Makefile's fuzz target runs %s, which is no fuzzer of that package", k)
		}
	}
}

// fuzzers lists the names of f's top-level func Fuzz*(*testing.F).
func fuzzers(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
			continue
		}
		out = append(out, fn.Name.Name)
	}
	return out
}

// sorted returns the keys of set in order.
func sorted(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
