package repro_test

// TestDocs holds the repository's documents to the tree. Every name a
// document gives in code — a Go identifier, a test, a CLI flag, a make
// target, an r3bench cell, a DESIGN.md section, a module-map row — must
// name something that exists, so a rename or a deletion that forgets its
// documents fails here rather than misleading the next reader. Dotted Go
// names resolve through the tree's one type-checked load (loadTree), which
// TestNoDeadExports reads too; the standard library packages the tree
// imports resolve with it.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents TestDocs checks. CHANGES.md, ROADMAP.md and
// PAPER.md are history or the paper, and bench/ is the benchmark's own.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"}

const ciFile = ".github/workflows/ci.yml"

var cliCommands = []string{"r3plan", "r3sim", "r3emu", "r3topo", "r3d"}

func TestDocs(t *testing.T) {
	ix := buildIndex(t)
	d := &docChecker{ix: ix}
	design := readFile(t, "DESIGN.md")
	d.sections = d.checkDesignSections(design)
	for _, name := range docFiles {
		text := readFile(t, name)
		if name == "Makefile" {
			d.checkMakefile(name, text)
		} else {
			d.checkMarkdown(name, text)
		}
	}
	d.checkCI(readFile(t, ciFile))
	for _, f := range ix.goFiles {
		d.checkSectionRefs(f.path, f.src)
	}
	d.checkModuleMap(design)
	for _, e := range d.errs {
		t.Error(e)
	}
}

// TestDocsResolverRejects plants spans the resolver must reject beside
// ones it must accept: a member a type lacks, through a package, a type
// and a field, a name declared only in a test file, and a dotted name only
// a test quotes (this file, below). The other planted names are built at
// run time, so that no file holds them.
func TestDocsResolverRejects(t *testing.T) {
	d := &docChecker{ix: buildIndex(t)}
	for _, span := range []string{"core.Plan.Prot", "Plan.Comms", "State.Fail", "sort.Interface.Len", "Prot.Idx", "denseBase", "eval.scenario_us"} {
		d.checkSpan("planted.md", 1, span)
	}
	if len(d.errs) > 0 {
		t.Fatalf("resolvable spans rejected: %q", d.errs)
	}
	for _, planted := range [][2]string{{"core.Plan.", "NoSuchField"}, {"Plan.", "NoSuchField"},
		{"core.", "NoSuchName"}, {"Comms.", "NoSuchField"}, {"core.", "denseBase"}} {
		span := planted[0] + planted[1]
		d.errs = nil
		if d.checkSpan("planted.md", 1, span); len(d.errs) != 1 {
			t.Errorf("planted span %s: got %q, want one error", span, d.errs)
		}
	}
	d.errs = nil
	if d.checkSpan("planted.md", 1, "eval.stale_metric_us"); len(d.errs) != 1 {
		t.Errorf("a dotted name only a test quotes: got %q, want one error", d.errs)
	}
}

// ---- the tree's index ----

type index struct {
	pkgs       map[string]*types.Package  // by package name: the tree's libraries and what they import
	typesNamed map[string][]types.Type    // type name -> every tree type of that name
	fieldsOf   map[string][]types.Type    // struct field name -> its types, any tree struct
	declared   map[string]bool            // every name declared anywhere in the tree
	strs       map[string]bool            // metric and span names: dotted lower-case string literals of non-test files
	tests      map[string][]string        // package dir -> Test/Fuzz/Benchmark/Example funcs
	flags      map[string]map[string]bool // command -> flag names
	targets    map[string]bool            // Makefile targets
	workloads  map[string]bool            // BENCHMARK.json workloads
	metrics    map[string]bool            // BENCHMARK.json end-to-end and per-layer metrics
	modDirs    map[string]bool            // internal/x, cmd/x, examples/x holding Go files
	goFiles    []*treeFile
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// buildIndex indexes the loaded tree. Dotted Go names resolve through the
// type-checked non-test packages; test names, flags and declared names come
// from every file's syntax, test files included; metric and span names
// from the string literals of non-test files only, so a stale dotted name
// in the docs does not pass because some test message quotes it.
// bench/ is the benchmark's own, so its files index nothing here.
func buildIndex(t *testing.T) *index {
	tr := loadTree(t)
	ix := &index{
		pkgs: map[string]*types.Package{}, typesNamed: map[string][]types.Type{}, fieldsOf: map[string][]types.Type{},
		declared: map[string]bool{}, strs: map[string]bool{}, tests: map[string][]string{},
		flags: map[string]map[string]bool{}, targets: map[string]bool{}, modDirs: map[string]bool{},
	}
	for _, p := range tr.pkgs {
		if strings.HasPrefix(p.Path(), "repro/bench") {
			continue
		}
		for _, q := range p.Imports() {
			ix.pkgs[q.Name()] = q
		}
		if p.Name() != "main" {
			ix.pkgs[p.Name()] = p
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			ix.typesNamed[name] = append(ix.typesNamed[name], tn.Type())
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					ix.fieldsOf[fld.Name()] = append(ix.fieldsOf[fld.Name()], fld.Type())
				}
			}
		}
	}
	for _, f := range tr.files {
		if !strings.HasPrefix(f.dir, "bench") {
			ix.goFiles = append(ix.goFiles, f)
			ix.addTreeFile(f)
		}
	}
	for _, line := range strings.Split(readFile(t, "Makefile"), "\n") {
		if m := makeTargetRe.FindStringSubmatch(line); m != nil {
			for _, tg := range strings.Fields(m[1]) {
				ix.targets[tg] = true
			}
		}
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCHMARK.json")), &bj); err != nil {
		t.Fatal(err)
	}
	ix.workloads, ix.metrics = map[string]bool{}, map[string]bool{}
	for _, w := range bj.Workloads {
		ix.workloads[w.Name] = true
	}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		ix.metrics[m.Name] = true
	}
	return ix
}

var makeTargetRe = regexp.MustCompile(`^([A-Za-z0-9_-]+(?:\s+[A-Za-z0-9_-]+)*)\s*:([^=]|$)`)

func (ix *index) addTreeFile(tf *treeFile) {
	dir, f := tf.dir, tf.ast
	parts := strings.Split(dir, "/")
	if len(parts) == 2 && (parts[0] == "internal" || parts[0] == "cmd" || parts[0] == "examples") {
		ix.modDirs[dir] = true
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && tf.test && fn.Recv == nil {
			for _, pre := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, pre) {
					ix.tests[dir] = append(ix.tests[dir], fn.Name.Name)
				}
			}
		}
	}
	cmd := ""
	if len(parts) == 2 && parts[0] == "cmd" {
		cmd = parts[1]
		if ix.flags[cmd] == nil {
			ix.flags[cmd] = map[string]bool{}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING && !tf.test {
				if s, err := strconv.Unquote(n.Value); err == nil && metricNameRe.MatchString(s) {
					ix.strs[s] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && cmd != "" && len(n.Args) > 0 {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "flag" {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						ix.flags[cmd][name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						ix.declared[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				ix.declared[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				ix.declared[id.Name] = true
			}
		case *ast.TypeSpec:
			ix.declared[n.Name.Name] = true
		case *ast.FuncDecl:
			ix.declared[n.Name.Name] = true
		}
		return true
	})
}

// yields returns the types a name leads on to: a type itself, a var's or
// field's type, a func's or method's first result.
func yields(obj types.Object) []types.Type {
	switch obj := obj.(type) {
	case *types.TypeName:
		return []types.Type{obj.Type()}
	case *types.Func:
		if res := obj.Type().(*types.Signature).Results(); res.Len() > 0 {
			return []types.Type{res.At(0).Type()}
		}
		return nil
	}
	return []types.Type{obj.Type()}
}

// walk resolves each name in rest as a field or method (embedded ones
// included) of the named types reached so far.
func walk(typs []types.Type, rest []string) bool {
	for _, name := range rest {
		var next []types.Type
		found := false
		for _, t := range typs {
			n := namedOf(t)
			if n == nil {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), name); obj != nil {
				next = append(next, yields(obj)...)
				found = true
			}
		}
		if !found {
			return false
		}
		typs = next
	}
	return true
}

// resolve reports whether a dotted Go name names something: pkg.Name...,
// Type.member..., or field.member... through the field's type.
func (ix *index) resolve(parts []string) bool {
	if p := ix.pkgs[parts[0]]; p != nil && len(parts) > 1 {
		if obj := p.Scope().Lookup(parts[1]); obj != nil && walk(yields(obj), parts[2:]) {
			return true
		}
	}
	if ts := ix.typesNamed[parts[0]]; len(ts) > 0 && walk(ts, parts[1:]) {
		return true
	}
	return len(ix.fieldsOf[parts[0]]) > 0 && walk(ix.fieldsOf[parts[0]], parts[1:])
}

// testMatches reports whether re matches a test function in one of the
// package directories, or in any package when dirs is nil.
func (ix *index) testMatches(re *regexp.Regexp, dirs []string) bool {
	for d, names := range ix.tests {
		if dirs != nil && !slices.Contains(dirs, d) {
			continue
		}
		for _, name := range names {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// ---- the checks ----

type docChecker struct {
	ix       *index
	sections map[int]bool
	errs     []string
}

func (d *docChecker) errorf(file string, line int, format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf("%s:%d: %s", file, line, fmt.Sprintf(format, args...)))
}

var (
	sectionRe    = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	designRefRe  = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	bareRefRe    = regexp.MustCompile(`(paper )?§(\d+)(\.\d)?`)
	testNameRe   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	codeSpanRe   = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)?)`")
	goNameRe     = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*$`)
	metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$`)
	callRe       = regexp.MustCompile(`^(.*?)\(.*\)$`)
	methodExprRe = regexp.MustCompile(`^\(\*?([A-Za-z0-9_.]+)\)\.(.*)$`)
	benchCellRe  = regexp.MustCompile(`^([A-Za-z0-9-]+)/([A-Za-z0-9_.]+)$`)
	makeRe       = regexp.MustCompile(`(?:^|[\s;&(])make((?:\s+[a-z][a-z0-9-]*)+)`)
	goSelRe      = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	fileExtRe    = regexp.MustCompile(`\.(go|md|json|txt|yml|yaml|pprof|out|sh|topo|mod|sum|prof)$`)
)

func lineOf(text string, off int) int { return strings.Count(text[:off], "\n") + 1 }

// checkDesignSections returns DESIGN.md's section numbers and checks that
// every section after the module map closes with a "Checked by:"
// paragraph naming a test.
func (d *docChecker) checkDesignSections(text string) map[int]bool {
	secs := map[int]bool{}
	locs := sectionRe.FindAllStringSubmatchIndex(text, -1)
	mapNum := -1
	for i, loc := range locs {
		n, _ := strconv.Atoi(text[loc[2]:loc[3]])
		secs[n] = true
		if strings.Contains(strings.ToLower(text[loc[4]:loc[5]]), "module map") {
			mapNum = n
			continue
		}
		if mapNum < 0 {
			continue
		}
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		body := strings.TrimSpace(text[loc[1]:end])
		paras := strings.Split(body, "\n\n")
		last := paras[len(paras)-1]
		if !strings.HasPrefix(last, "Checked by:") || !testNameRe.MatchString(last) {
			d.errorf("DESIGN.md", lineOf(text, loc[0]), "section %d does not end in a \"Checked by:\" line naming its tests", n)
		}
	}
	if mapNum < 0 {
		d.errorf("DESIGN.md", 1, "no module map section")
	}
	return secs
}

// checkSectionRefs resolves every "DESIGN.md §N" in a file, and in
// DESIGN.md itself every bare §N that is not the paper's.
func (d *docChecker) checkSectionRefs(file, text string) {
	for _, m := range designRefRe.FindAllStringSubmatchIndex(text, -1) {
		n, _ := strconv.Atoi(text[m[2]:m[3]])
		if !d.sections[n] {
			d.errorf(file, lineOf(text, m[0]), "DESIGN.md §%d does not exist", n)
		}
	}
	if file != "DESIGN.md" {
		return
	}
	for _, m := range bareRefRe.FindAllStringSubmatchIndex(text, -1) {
		if m[2] >= 0 || m[6] >= 0 {
			continue // the paper's section
		}
		n, _ := strconv.Atoi(text[m[4]:m[5]])
		if !d.sections[n] {
			d.errorf(file, lineOf(text, m[0]), "§%d does not exist", n)
		}
	}
}

// checkTestNames resolves every Test/Fuzz/Benchmark name in text as the
// name, or the prefix, of a test function somewhere in the tree.
func (d *docChecker) checkTestNames(file, text string) {
	for _, m := range testNameRe.FindAllStringIndex(text, -1) {
		name := text[m[0]:m[1]]
		if !d.ix.testMatches(regexp.MustCompile("^"+name), nil) {
			d.errorf(file, lineOf(text, m[0]), "no test is named %s or starts with it", name)
		}
	}
}

func (d *docChecker) checkMarkdown(file, text string) {
	d.checkSectionRefs(file, text)
	d.checkTestNames(file, text)
	// Fenced blocks are command lines (and Go, for ```go); blank them out
	// of the prose so inline spans are found only outside them.
	lines := strings.Split(text, "\n")
	prose := make([]string, len(lines))
	fence, lang := false, ""
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fence = !fence
			lang = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(l), "```"))
			continue
		}
		if !fence {
			prose[i] = l
			continue
		}
		d.checkCommandLine(file, i+1, l)
		if lang == "go" {
			for _, m := range goSelRe.FindAllStringSubmatch(l, -1) {
				if d.ix.pkgs[m[1]] != nil && !d.ix.resolve([]string{m[1], m[2]}) {
					d.errorf(file, i+1, "unresolved Go name %s.%s", m[1], m[2])
				}
			}
		}
	}
	joined := strings.Join(prose, "\n")
	for _, m := range codeSpanRe.FindAllStringSubmatchIndex(joined, -1) {
		span := strings.Join(strings.Fields(joined[m[2]:m[3]]), " ")
		d.checkSpan(file, lineOf(joined, m[0]), span)
	}
}

// checkSpan checks one inline code span: a command line, make targets, an
// r3bench cell, or a Go name.
func (d *docChecker) checkSpan(file string, line int, span string) {
	d.checkCommandLine(file, line, span)
	if m := benchCellRe.FindStringSubmatch(span); m != nil {
		if d.ix.workloads[m[1]] != d.ix.metrics[m[2]] {
			d.errorf(file, line, "%s is not a BENCHMARK.json workload/metric cell", span)
		}
		return
	}
	name := strings.TrimLeft(span, "*&")
	name = strings.TrimPrefix(name, "[]")
	if m := methodExprRe.FindStringSubmatch(name); m != nil {
		name = m[1] + "." + m[2]
	}
	if m := callRe.FindStringSubmatch(name); m != nil {
		name = m[1]
	}
	if !goNameRe.MatchString(name) || testNameRe.MatchString(name) || fileExtRe.MatchString(name) {
		return
	}
	if d.ix.strs[name] || d.ix.metrics[name] || d.ix.workloads[name] {
		return
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		if name == strings.ToLower(name) || name == strings.ToUpper(name) || d.ix.declared[name] {
			return
		}
		d.errorf(file, line, "%s is declared nowhere in the tree", name)
		return
	}
	if !d.ix.resolve(parts) {
		d.errorf(file, line, "unresolved Go name %s", name)
	}
}

// checkCommandLine resolves the flags of every r3* command on a command
// line, and every make target it runs.
func (d *docChecker) checkCommandLine(file string, line int, text string) {
	for _, m := range makeRe.FindAllStringSubmatch(text, -1) {
		for _, tg := range strings.Fields(m[1]) {
			if !d.ix.targets[tg] {
				d.errorf(file, line, "make %s: no such Makefile target", tg)
			}
		}
	}
	toks := strings.Fields(text)
	for i := 0; i < len(toks); i++ {
		cmd := commandOf(toks[i])
		if cmd == "" {
			continue
		}
		for j := i + 1; j < len(toks); j++ {
			tok := toks[j]
			if strings.HasPrefix(tok, "#") || strings.HasPrefix(tok, "|") || strings.HasPrefix(tok, ">") ||
				strings.HasPrefix(tok, "&") || strings.HasPrefix(tok, "2>") || tok == ";" {
				break
			}
			for _, part := range strings.Split(tok, "/") {
				if len(part) < 2 || part[0] != '-' || !isLetter(strings.TrimLeft(part, "-")) {
					continue
				}
				flag := strings.TrimLeft(part, "-")
				if k := strings.IndexAny(flag, "=,;)`"); k >= 0 {
					flag = flag[:k]
				}
				if !d.ix.flags[cmd][flag] {
					d.errorf(file, line, "%s has no flag -%s", cmd, flag)
				}
			}
			if strings.HasSuffix(tok, ";") || strings.HasSuffix(tok, ")") {
				break
			}
		}
	}
}

func isLetter(s string) bool {
	return s != "" && (s[0] >= 'a' && s[0] <= 'z' || s[0] >= 'A' && s[0] <= 'Z')
}

func commandOf(tok string) string {
	tok = strings.Trim(tok, "`'\"(),;")
	base := tok[strings.LastIndex(tok, "/")+1:]
	for _, c := range cliCommands {
		if base == c || strings.HasPrefix(base, c+".") {
			return c
		}
	}
	return ""
}

// checkMakefile checks the Makefile's comments as prose and its recipes as
// command lines, and resolves every -run and -fuzz alternative against the
// tests of the packages its line lists.
func (d *docChecker) checkMakefile(file, text string) {
	d.checkSectionRefs(file, text)
	d.checkTestNames(file, text)
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		start, l := i+1, lines[i]
		for strings.HasSuffix(l, "\\") && i+1 < len(lines) {
			i++
			l = strings.TrimSuffix(l, "\\") + " " + lines[i]
		}
		if c := strings.Index(l, "#"); c >= 0 && strings.HasPrefix(strings.TrimSpace(l), "#") {
			for _, m := range codeSpanRe.FindAllStringSubmatch(l[c+1:], -1) {
				d.checkSpan(file, start, m[1])
			}
			continue
		}
		l = strings.ReplaceAll(l, "$$", "$")
		d.checkCommandLine(file, start, l)
		d.checkRunLists(file, start, l)
	}
}

var runListRe = regexp.MustCompile(`-(run|fuzz)\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)

func (d *docChecker) checkRunLists(file string, line int, l string) {
	if !strings.Contains(l, " test ") {
		return
	}
	var dirs []string // nil: every package
	for _, tok := range strings.Fields(l) {
		if tok == "./..." {
			dirs = nil
			break
		}
		if tok == "." || strings.HasPrefix(tok, "./") {
			dirs = append(dirs, strings.TrimPrefix(tok, "./"))
		}
	}
	for _, m := range runListRe.FindAllStringSubmatch(l, -1) {
		list := m[2] + m[3] + m[4]
		for _, alt := range strings.Split(list, "|") {
			re, err := regexp.Compile(alt)
			if err != nil || !d.ix.testMatches(re, dirs) {
				d.errorf(file, line, "-%s %q matches no test in %s", m[1], alt, strings.Join(dirs, " "))
			}
		}
	}
}

// checkCI holds ci.yml to the Makefile: its section references resolve,
// the make targets its jobs call exist, and it keeps no -run list of its
// own.
func (d *docChecker) checkCI(text string) {
	d.checkSectionRefs(ciFile, text)
	for i, l := range strings.Split(text, "\n") {
		if trimmed := strings.TrimSpace(l); !strings.HasPrefix(trimmed, "#") && !strings.HasPrefix(trimmed, "- name:") {
			d.checkCommandLine(ciFile, i+1, l)
		}
		if strings.Contains(l, " -run ") {
			d.errorf(ciFile, i+1, "a -run list belongs in a Makefile target, not in CI")
		}
	}
}

// checkModuleMap matches DESIGN.md's module map against the directories
// under internal/, cmd/ and examples/ that hold Go files, both ways.
func (d *docChecker) checkModuleMap(text string) {
	rows := map[string]int{}
	mapLine := 1
	rowRe := regexp.MustCompile("^\\| `((?:internal|cmd|examples)/[a-z0-9]+)` \\|")
	for i, l := range strings.Split(text, "\n") {
		if sectionRe.MatchString(l) && strings.Contains(strings.ToLower(l), "module map") {
			mapLine = i + 1
		}
		if m := rowRe.FindStringSubmatch(l); m != nil {
			rows[m[1]] = i + 1
			if !d.ix.modDirs[m[1]] {
				d.errorf("DESIGN.md", i+1, "module map names %s, which holds no Go package", m[1])
			}
		}
	}
	var missing []string
	for dir := range d.ix.modDirs {
		if rows[dir] == 0 {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		d.errorf("DESIGN.md", mapLine, "module map has no row for %s", dir)
	}
}
