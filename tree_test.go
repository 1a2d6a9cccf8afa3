package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// treeFile is one Go file of the tree, test files included.
type treeFile struct {
	path, dir, src string
	ast            *ast.File
	test           bool
}

// tree is the repository's Go source parsed once, with its non-test files
// type-checked once: TestDocs resolves the documents' names through it and
// TestNoDeadExports holds the code to its callers with it.
type tree struct {
	fset  *token.FileSet
	files []*treeFile
	pkgs  map[string]*types.Package // by import path
	info  *types.Info
	decls map[types.Object]ast.Node // each checked top-level name's declaration
}

var (
	treeOnce sync.Once
	theTree  *tree
	treeErr  error
)

// loadTree loads the repository once per test binary. Every directory
// with Go files counts except dot directories, testdata, and bench/ other
// than bench/r3bench: the benchmark's driver is a caller of internal/, so
// its sources are checked, but its tests are its own.
func loadTree(t *testing.T) *tree {
	t.Helper()
	treeOnce.Do(func() {
		fset := token.NewFileSet()
		var files []*treeFile
		err := filepath.WalkDir(".", func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if de.IsDir() {
				base := de.Name()
				if path != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			slash := filepath.ToSlash(path)
			inBench := strings.HasPrefix(slash, "bench/")
			if !strings.HasSuffix(path, ".go") || inBench && (!strings.HasPrefix(slash, "bench/r3bench/") || strings.HasSuffix(path, "_test.go")) {
				return nil
			}
			f, err := parseFile(fset, path)
			if f != nil {
				files = append(files, f)
			}
			return err
		})
		if err != nil {
			treeErr = err
			return
		}
		theTree, treeErr = checkTree(fset, files, func(dir string) string {
			if dir == "." {
				return "repro"
			}
			return "repro/" + dir
		})
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return theTree
}

func parseFile(fset *token.FileSet, path string) (*treeFile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &treeFile{path: filepath.ToSlash(path), dir: filepath.ToSlash(filepath.Dir(path)),
		src: string(src), ast: f, test: strings.HasSuffix(path, "_test.go")}, nil
}

// checkTree type-checks the non-test files package by package, each
// directory one package under the import path importPath gives it. The
// standard library is checked from its GOROOT sources, which needs no
// network and no export data, with cgo off: the pure-Go files of net and
// os/user declare the same API, and running cgo and a C compiler on them
// would cost a second here and a dependency on the machine.
func checkTree(fset *token.FileSet, files []*treeFile, importPath func(dir string) string) (*tree, error) {
	tr := &tree{fset: fset, files: files, pkgs: map[string]*types.Package{},
		decls: map[types.Object]ast.Node{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	byPath := map[string][]*ast.File{}
	for _, f := range files {
		if !f.test {
			p := importPath(f.dir)
			byPath[p] = append(byPath[p], f.ast)
		}
	}
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	var failed error
	imp = func(path string) (*types.Package, error) {
		if p, ok := tr.pkgs[path]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		src, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		tr.pkgs[path] = nil
		conf := types.Config{Importer: imp, Error: func(err error) {
			if failed == nil {
				failed = err
			}
		}}
		p, _ := conf.Check(path, fset, src, tr.info)
		tr.pkgs[path] = p
		return p, failed
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}
	for _, f := range files {
		if f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				tr.decls[tr.info.Defs[decl.Name]] = decl
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						tr.decls[tr.info.Defs[spec.Name]] = spec
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							tr.decls[tr.info.Defs[id]] = spec
						}
					}
				}
			}
		}
	}
	return tr, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// namedOf returns the named type t denotes, looking through pointers,
// slices, arrays and map values, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
