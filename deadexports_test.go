package repro_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestNoDeadExports holds the code to its callers: every exported name,
// field and method, and every unexported top-level function, under
// internal/, cmd/ and examples/ needs a reference from a non-test file
// outside its own declaration. bench/r3bench counts as a caller but is
// not checked: it is the benchmark's own. Tests do not count. A method
// that an interface requires is exempt when the type implements an
// interface, declared in the tree or in a package the tree imports, that
// has it. No name of the tree is exempt by name (DESIGN.md, opening).
func TestNoDeadExports(t *testing.T) {
	tr := loadTree(t)
	for _, d := range tr.deadNames(func(dir string) bool {
		return !strings.HasPrefix(dir, "bench")
	}) {
		t.Errorf("%s has no caller outside tests: delete it, unexport it, or move it into the tests that use it", d)
	}
}

// TestDeadExportsFixture runs the checker on testdata/deadexports: an
// exported function nothing calls, a method only its test calls, a field
// nothing reads, fields that are only written (by =, by ++ and by op= into
// an element) and a type named only by its own method's receiver are
// reported, with their positions; a method reached only through an
// interface, a json-tagged field that is only written and the names its
// callers use are not.
func TestDeadExportsFixture(t *testing.T) {
	got := loadFixture(t).deadNames(func(string) bool { return true })
	want := []string{
		"testdata/deadexports/fixture.go:14: deadexports.Orphan",
		"testdata/deadexports/fixture.go:19: deadexports.Box.Unread",
		"testdata/deadexports/fixture.go:21: deadexports.Box.Written",
		"testdata/deadexports/fixture.go:22: deadexports.Box.Bumped",
		"testdata/deadexports/fixture.go:23: deadexports.Box.Slots",
		"testdata/deadexports/fixture.go:33: deadexports.Box.Stale",
		"testdata/deadexports/fixture.go:59: deadexports.Tag",
	}
	if !slices.Equal(got, want) {
		t.Errorf("dead names:\n got %q\nwant %q", got, want)
	}
}

// loadFixture type-checks testdata/deadexports and its package knobs, each
// with its test file parsed beside it.
func loadFixture(t *testing.T) *tree {
	t.Helper()
	fset := token.NewFileSet()
	var files []*treeFile
	for _, name := range []string{"fixture.go", "fixture_test.go", "knobs/knobs.go", "knobs/knobs_test.go"} {
		f, err := parseFile(fset, filepath.Join("testdata", "deadexports", name))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	tr, err := checkTree(fset, files, func(dir string) string { return strings.TrimPrefix(dir, "testdata/") })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// deadNames reports, as "file:line: pkg.Name[.member]" in file order, the
// checked names in the directories owned selects that nothing outside
// their own declarations references.
func (tr *tree) deadNames(owned func(dir string) bool) []string {
	// A method's receiver names the method's own type, outside the type's
	// declaration; that alone does not use the type.
	recvs := map[*ast.Ident]bool{}
	for _, f := range tr.files {
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				recvs[recvIdent(fd.Recv.List[0].Type)] = true
			}
		}
	}
	// A store into a field is no use of it, be it =, ++, op= or into an
	// element: a field nothing reads is dead however often it is written.
	stores := map[*ast.Ident]bool{}
	for _, r := range tr.fieldRefs() {
		if r.sink && r.id != nil {
			stores[r.id] = true
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range tr.info.Uses {
		obj = origin(obj)
		if d, ok := tr.decls[obj]; recvs[id] || stores[id] || ok && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue // a receiver, a store, or a reference from inside its own declaration
		}
		used[obj] = true
	}
	// A promoted field or method reaches through each embedded field on
	// its path.
	for _, sel := range tr.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			used[origin(st.Field(i))] = true
			typ = st.Field(i).Type()
		}
	}
	ifaces := tr.interfaces()

	type finding struct {
		pos  token.Position
		name string
	}
	var out []finding
	report := func(obj types.Object, name string) {
		if !used[obj] {
			out = append(out, finding{tr.fset.Position(obj.Pos()), obj.Pkg().Name() + "." + name})
		}
	}
	for _, f := range tr.files {
		if f.test || !owned(f.dir) {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if name == "init" || name == "main" || name == "_" {
					continue
				}
				obj := tr.info.Defs[decl.Name].(*types.Func)
				if decl.Recv == nil {
					report(obj, name)
					continue
				}
				recv := namedOf(obj.Type().(*types.Signature).Recv().Type())
				if obj.Exported() && recv != nil && !requiredByInterface(recv, obj.Name(), ifaces) {
					report(obj, recv.Obj().Name()+"."+obj.Name())
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := tr.info.Defs[spec.Name]
						if !obj.Exported() {
							continue
						}
						report(obj, obj.Name())
						if st, ok := obj.Type().Underlying().(*types.Struct); ok && !jsonTagged(st) {
							for i := 0; i < st.NumFields(); i++ {
								if fld := st.Field(i); fld.Exported() {
									report(fld, obj.Name()+"."+fld.Name())
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								report(tr.info.Defs[id], id.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.SortStableFunc(out, func(a, b finding) int {
		if c := strings.Compare(a.pos.Filename, b.pos.Filename); c != 0 {
			return c
		}
		return a.pos.Line - b.pos.Line
	})
	names := make([]string, len(out))
	for i, f := range out {
		names[i] = fmt.Sprintf("%s:%d: %s", filepath.ToSlash(f.pos.Filename), f.pos.Line, f.name)
	}
	return names
}

// jsonTagged reports whether a field of st carries a json: tag: such a
// struct is encoding/json's to read, so its fields count as read.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

// interfaces returns every interface type with methods that a checked
// package declares or imports, and error.
func (tr *tree) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(p *types.Package) {
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
	}
	for _, p := range tr.pkgs {
		add(p)
		for _, q := range p.Imports() {
			add(q)
		}
	}
	return out
}

// requiredByInterface reports whether T or *T implements an interface
// that has a method of that name.
func requiredByInterface(t *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// recvIdent returns the type name of a receiver: T in T, *T, T[P] or *T[P].
func recvIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// origin maps a field or method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
