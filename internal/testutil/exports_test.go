package testutil

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesAreUsed is the instrument of ROADMAP items H and K.
//
// H: an exported package-level name or method in internal/* non-test
// code must be referenced from non-test code of another package (the
// root package, cmd/, examples/, another internal package, or bench/ —
// the benchmark's own module is a caller). So must every exported field
// of an internal package's input structs (see unusedInputFields). There
// is no allowlist.
//
// K: an exported name or method of the root package must be reached
// from cmd/, examples/, internal/serve, internal/eval, bench/ or the
// body of an Example* test of the root, or sit on
// testdata/unused_root_exports.txt. So must every exported field of the
// root's input structs (see unusedInputFields): a knob no caller sets is
// a knob nobody needs. That list was seeded with the state of the
// commit that added K's sweep, its field lines with the generator
// fields tests shape fixtures with, and may only shrink: a listed name
// that has gained a caller, or is gone, fails the test too.
//
// Not counted: the fields of any other struct (results a caller
// reads); methods that make their type — or a type of another package
// embedding it — satisfy an interface declared in the module or the
// standard library (they are called through the interface, never by
// name); types that are never named outside their package but travel
// in the signature or type of something that is used there; and the
// test-support packages testutil and faultfs, whose callers are tests
// by design — which the sweep proves: no non-test file may import them.
func TestExportedNamesAreUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root := moduleRoot(t)
	u := newUniverse(t)
	u.list(root, "./...")
	u.list(filepath.Join(root, "bench"), ".")
	for path := range u.files {
		if _, err := u.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	const module = "assocmine"
	testSupport := func(path string) bool {
		return path == module+"/internal/testutil" || path == module+"/internal/faultfs"
	}
	for path, pkg := range u.pkgs {
		for _, imp := range pkg.Imports() {
			if testSupport(imp.Path()) && !testSupport(path) {
				t.Errorf("non-test code of %s imports the test-support package %s: only _test.go files may", path, imp.Path())
			}
		}
	}
	rootCaller := func(path string) bool {
		for _, prefix := range []string{"/cmd/", "/examples/", "/internal/serve", "/internal/eval", "/bench"} {
			if strings.HasPrefix(path, module+prefix) {
				return true
			}
		}
		return false
	}

	// Every object a package's non-test code uses from another package,
	// the named types those objects carry, and who embeds whom. usedRoot
	// holds what the root's sanctioned callers use.
	used, usedRoot := map[types.Object]bool{}, map[types.Object]bool{}
	embedders := map[*types.TypeName][]types.Type{}
	for path, info := range u.infos {
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != path {
				used[origin(obj)] = true
				markNamed(obj.Type(), used)
				if rootCaller(path) {
					usedRoot[origin(obj)] = true
					markNamed(obj.Type(), usedRoot)
				}
			}
		}
		scope := u.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Embedded() {
						if inner := namedOf(f.Type()); inner != nil && inner.Obj().Pkg() != nil && inner.Obj().Pkg().Path() != path {
							embedders[inner.Obj()] = append(embedders[inner.Obj()], tn.Type())
						}
					}
				}
			}
		}
	}
	u.exampleUses(root, module, usedRoot)
	ifaces := u.interfaces()

	// unusedIn lists the exported names and methods of the matching
	// packages that used does not hold.
	unusedIn := func(match func(path string) bool, used map[types.Object]bool) []string {
		var unused []string
		for path, pkg := range u.pkgs {
			if !match(path) {
				continue
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if obj.Exported() && !used[obj] {
					unused = append(unused, path+"."+name)
				}
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				carriers := append([]types.Type{named}, embedders[tn]...)
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfies(carriers, m.Name(), ifaces) {
						unused = append(unused, path+"."+name+"."+m.Name())
					}
				}
			}
		}
		sort.Strings(unused)
		return unused
	}
	internal := func(path string) bool {
		return strings.Contains(path, "/internal/") && !testSupport(path)
	}
	for _, name := range unusedIn(internal, used) {
		t.Errorf("%s is exported but no non-test code outside its package uses it: delete it, move it to a _test.go oracle, or unexport it", name)
	}
	var unusedFields []string
	for path, pkg := range u.pkgs {
		if internal(path) {
			unusedFields = append(unusedFields, unusedInputFields(pkg, used)...)
		}
	}
	sort.Strings(unusedFields)
	for _, name := range unusedFields {
		t.Errorf("%s is a field of an input struct that no non-test code outside its package sets or reads: make it the constant it defaults to, or unexport it", name)
	}
	unusedRoot := append(unusedIn(func(path string) bool { return path == module }, usedRoot),
		unusedInputFields(u.pkgs[module], usedRoot)...)
	sort.Strings(unusedRoot)
	checkAllowlist(t, "unused_root_exports.txt",
		"# Exported root-package names and input-struct fields that cmd/,\n# examples/, internal/serve, internal/eval, bench/ and the Example*\n# tests do not reach (TestExportedNamesAreUsed, ROADMAP item K). This\n# list only shrinks.\n",
		unusedRoot)
}

// unusedInputFields lists the exported fields of pkg's input structs
// that used does not hold. An input struct is a non-alias struct type of
// pkg that an exported function or method of pkg takes by value or by
// pointer: its fields are the knobs a caller sets, so each needs one
// that names it.
func unusedInputFields(pkg *types.Package, used map[types.Object]bool) []string {
	inputs := map[*types.TypeName]bool{}
	takes := func(sig *types.Signature) {
		for i := 0; i < sig.Params().Len(); i++ {
			named := namedOf(sig.Params().At(i).Type())
			if named == nil || named.Obj().Pkg() != pkg {
				continue
			}
			if _, ok := named.Underlying().(*types.Struct); ok {
				inputs[named.Obj()] = true
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				takes(obj.Type().(*types.Signature))
			}
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok && obj.Exported() && !obj.IsAlias() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						takes(m.Type().(*types.Signature))
					}
				}
			}
		}
	}
	var unused []string
	for tn := range inputs {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !used[f] {
				unused = append(unused, pkg.Path()+"."+tn.Name()+"."+f.Name())
			}
		}
	}
	return unused
}

// checkAllowlist fails for every unused name missing from the committed
// allowlist testdata/<file> and for every listed name that is no longer
// unused. UPDATE_UNUSED_EXPORTS rewrites the file first, to drop lines
// after a cleanup; the root's list is the only allowlist.
func checkAllowlist(t *testing.T, file, header string, unused []string) {
	allowPath := filepath.Join("testdata", file)
	if os.Getenv("UPDATE_UNUSED_EXPORTS") != "" {
		if err := os.WriteFile(allowPath, []byte(header+strings.Join(unused, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allowed := map[string]bool{}
	f, err := os.Open(allowPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			allowed[line] = true
		}
	}
	for _, name := range unused {
		if !allowed[name] {
			t.Errorf("%s is exported but nothing that counts as a caller uses it: unexport it, move it to a _test.go file, or delete it", name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is on the allowlist but is used or gone: delete its line from %s (the list only shrinks)", name, allowPath)
	}
}

func moduleRoot(t *testing.T) string {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// universe type-checks the module's packages from their non-test files
// in one identity space: module packages import each other's checked
// form, everything else comes from the standard library's source.
type universe struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	files map[string][]string // import path → non-test Go files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func newUniverse(t *testing.T) *universe {
	fset := token.NewFileSet()
	build.Default.CgoEnabled = false // pure-Go variants; no C toolchain needed
	return &universe{
		t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		files: map[string][]string{}, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{},
	}
}

// list records the packages `go list pattern` names in dir. A package
// with no non-test files (one whose code is all _test.go) has nothing to
// sweep and is skipped.
func (u *universe) list(dir, pattern string) {
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}`, pattern)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		u.t.Fatalf("go list %s in %s: %v", pattern, dir, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		part := strings.Split(line, "|")
		if part[2] == "" {
			continue
		}
		for _, name := range strings.Split(part[2], ",") {
			u.files[part[0]] = append(u.files[part[0]], filepath.Join(part[1], name))
		}
	}
}

// exampleUses marks in used what the bodies of the Example* functions
// of the module root's external test package refer to: the documented
// way to call a name counts as a caller of it.
func (u *universe) exampleUses(root, module string, used map[types.Object]bool) {
	cmd := exec.Command("go", "list", "-f", `{{join .XTestGoFiles ","}}`, ".")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		u.t.Fatalf("go list . in %s: %v", root, err)
	}
	var files []*ast.File
	for _, name := range strings.Split(strings.TrimSpace(string(out)), ",") {
		f, err := parser.ParseFile(u.fset, filepath.Join(root, name), nil, parser.SkipObjectResolution)
		if err != nil {
			u.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: u}).Check(module+"_test", u.fset, files, info); err != nil {
		u.t.Fatalf("type-checking the root's external tests: %v", err)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Example") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == module {
						used[origin(obj)] = true
						markNamed(obj.Type(), used)
					}
				}
				return true
			})
		}
	}
}

// Import implements types.Importer.
func (u *universe) Import(path string) (*types.Package, error) {
	names, ok := u.files[path]
	if !ok {
		return u.std.Import(path)
	}
	if pkg, ok := u.pkgs[path]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(u.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: u}).Check(path, u.fset, files, info)
	if err != nil {
		return nil, err
	}
	u.pkgs[path], u.infos[path] = pkg, info
	return pkg, nil
}

// interfaces returns every named interface type the module can see: its
// own and those of every package it imports, transitively.
func (u *universe) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range u.pkgs {
		visit(p)
	}
	// error, and the two unnamed Unwrap interfaces of errors.Is/As.
	errType := types.Universe.Lookup("error").Type()
	out = append(out, errType.Underlying().(*types.Interface))
	for _, result := range []types.Type{errType, types.NewSlice(errType)} {
		unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false))
		out = append(out, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	}
	return out
}

// satisfies reports whether method name is part of what makes one of
// the carrier types (or a pointer to it) implement one of the interfaces.
func satisfies(carriers []types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			for _, c := range carriers {
				if types.Implements(c, it) || types.Implements(types.NewPointer(c), it) {
					return true
				}
			}
		}
	}
	return false
}

// namedOf unwraps pointers down to a named type, or returns nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// markNamed marks the named types a used object's type is built from:
// a type that crosses a package boundary inside a signature, a field or
// a container is in use there even if its name never appears.
func markNamed(t types.Type, used map[types.Object]bool) {
	switch t := t.(type) {
	case *types.Named:
		used[t.Obj()] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			markNamed(t.TypeArgs().At(i), used)
		}
	case *types.Pointer:
		markNamed(t.Elem(), used)
	case *types.Slice:
		markNamed(t.Elem(), used)
	case *types.Array:
		markNamed(t.Elem(), used)
	case *types.Chan:
		markNamed(t.Elem(), used)
	case *types.Map:
		markNamed(t.Key(), used)
		markNamed(t.Elem(), used)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			markNamed(t.Params().At(i).Type(), used)
		}
		for i := 0; i < t.Results().Len(); i++ {
			markNamed(t.Results().At(i).Type(), used)
		}
	}
}

// origin maps a method or function of an instantiated generic type back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
