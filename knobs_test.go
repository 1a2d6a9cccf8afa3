package repro_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoTestOnlyKnobs holds every exported field of an exported struct
// under internal/ to a writer outside tests: a field every binary leaves
// at its zero value is a knob only tests turn, and the code behind its
// other values is code no binary runs. cmd/, examples/ and bench/r3bench
// count as writers. A write from a method of the field's own type is
// defaulting, not a setting, and does not count; but a field its own
// methods write and another package's non-test code reads is an output,
// not a knob. No field is exempt by name (DESIGN.md, opening).
func TestNoTestOnlyKnobs(t *testing.T) {
	tr := loadTree(t)
	for _, k := range tr.testOnlyKnobs(func(dir string) bool {
		return strings.HasPrefix(dir, "internal/")
	}) {
		t.Errorf("%s is set only by tests: delete it with the code only it reaches, make it a constant, or make it an unexported seam its package's tests set", k)
	}
}

// TestTestOnlyKnobsFixture runs the check on testdata/deadexports/knobs:
// a field only a test sets, one only its own method defaults and an
// output of its own method that only its own package reads are reported;
// a field set by a keyed or positional literal, =, ++, a range key or
// value, & or an element store, and an output another package reads, are
// not.
func TestTestOnlyKnobsFixture(t *testing.T) {
	got := loadFixture(t).testOnlyKnobs(func(dir string) bool { return strings.HasSuffix(dir, "/knobs") })
	want := []string{
		"testdata/deadexports/knobs/knobs.go:7: knobs.Config.TestOnly",
		"testdata/deadexports/knobs/knobs.go:8: knobs.Config.Defaulted",
		"testdata/deadexports/knobs/knobs.go:17: knobs.Config.Kept",
	}
	if !slices.Equal(got, want) {
		t.Errorf("test-only knobs:\n got %q\nwant %q", got, want)
	}
}

// testOnlyKnobs reports, as "file:line: pkg.Type.Field" in file order, the
// exported fields of the exported structs declared in the directories
// owned selects that no checked file writes from outside the field's own
// methods, and that are not outputs of those methods.
func (tr *tree) testOnlyKnobs(owned func(dir string) bool) []string {
	set, ownSet, readElsewhere := map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, r := range tr.fieldRefs() {
		switch {
		case r.write && !r.own:
			set[r.field] = true
		case r.write:
			ownSet[r.field] = true
		case r.field.Pkg().Path() != r.pkg:
			readElsewhere[r.field] = true
		}
	}
	var out []string
	for _, f := range tr.files {
		if f.test || !owned(f.dir) {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := tr.info.Defs[ts.Name]
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || !obj.Exported() {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if v.Exported() && !set[v] && !(ownSet[v] && readElsewhere[v]) {
						pos := tr.fset.Position(v.Pos())
						out = append(out, fmt.Sprintf("%s:%d: %s.%s.%s", filepath.ToSlash(pos.Filename), pos.Line, obj.Pkg().Name(), obj.Name(), v.Name()))
					}
				}
			}
		}
	}
	return out
}
