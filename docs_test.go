package rethinkkv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rethinkkv"
)

var (
	docDirRef   = regexp.MustCompile(`\b(?:cmd|examples)/[a-z][\w-]*`)
	docJSONRef  = regexp.MustCompile(`[\w./-]*\w\.json\b`)
	docFuncRef  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	docCodeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	docIdentRef = regexp.MustCompile(`\b([a-z]+)\.([A-Z]\w*)`)
	docMakeRef  = regexp.MustCompile(`(?m)^[\x60\s]*make[ \t]+([a-z][\w-]*)`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
)

// declaredNames lists what internal/<pkg>'s non-test files declare at package
// level (funcs, methods, types, vars, consts); nil when there is no such
// package.
func declaredNames(t *testing.T, pkg string) map[string]bool {
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("internal", pkg), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl: // methods too: the docs write model.ForwardMixedInto
					decls[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								decls[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// TestDocsPointAtThingsThatExist resolves every cmd/<name>, examples/<name>,
// `make <target>`, *.json file, Test*/Benchmark*/Fuzz* identifier and
// `pkg.Ident` code span naming an internal package that README.md, DESIGN.md
// and the verify skill mention, and keeps the retired second benchmark and the
// retired KV read interfaces and block allocators from being cited again.
func TestDocsPointAtThingsThatExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	funcs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[string]map[string]bool{} // internal package → exported declarations
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, gone := range []string{"BENCH_", "servebench"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s: mentions %q; benchmark/ is the only performance reference", doc, gone)
			}
		}
		for _, gone := range []string{"FlatReader", "PageReader", "QuantReader", "FlatAppender", "KeySummaryReader", "PagedAllocator", "SharingAllocator", "DualPoolPaged"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s: mentions %q; kvcache.Paged is the only page seam and sched owns the page ledger", doc, gone)
			}
		}
		for _, ref := range docDirRef.FindAllString(text, -1) {
			if st, err := os.Stat(ref); err != nil || !st.IsDir() {
				t.Errorf("%s: %s is not a directory", doc, ref)
			}
		}
		for _, ref := range docJSONRef.FindAllString(text, -1) {
			if st, err := os.Stat(ref); err != nil || st.IsDir() {
				t.Errorf("%s: %s is not a file in the repository", doc, ref)
			}
		}
		for _, ref := range docFuncRef.FindAllString(text, -1) {
			if !funcs[ref] {
				t.Errorf("%s: no func %s in any *_test.go", doc, ref)
			}
		}
		// `make x` counts only where it is a command: at the start of an
		// inline code span or of a line inside a fenced block. `pkg.Ident`
		// counts in inline spans where pkg is a directory of internal/
		// (fenced blocks hold facade examples and shell).
		for _, span := range docCodeSpan.FindAllString(text, -1) {
			for _, m := range docMakeRef.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: make %s is not a Makefile target", doc, m[1])
				}
			}
			if strings.HasPrefix(span, "```") {
				continue
			}
			for _, m := range docIdentRef.FindAllStringSubmatch(span, -1) {
				if _, seen := decls[m[1]]; !seen {
					decls[m[1]] = declaredNames(t, m[1])
				}
				if d := decls[m[1]]; d != nil && !d[m[2]] {
					t.Errorf("%s: internal/%s declares no exported %s", doc, m[1], m[2])
				}
			}
		}
	}
}

// TestSchedFilesStaySmall keeps the scheduler split along the request
// lifecycle (admit / step / retire): no non-test file of internal/sched may
// grow past 600 lines.
func TestSchedFilesStaySmall(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "sched", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under internal/sched (err %v)", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), "\n"); n > 600 {
			t.Errorf("%s is %d lines, over 600: split it along the request lifecycle", f, n)
		}
	}
}

// callerExempt lists the declarations under internal/ that
// TestEveryDeclarationHasACaller lets stand without a caller, as
// "pkg.Name" or "pkg.Recv.Name" → the reason.
var callerExempt = map[string]string{
	"faults.Injector.Fired":   "internal/faults is a test harness by design: tests read back what the injector did",
	"faults.Injector.Stormed": "internal/faults is a test harness by design: tests read back what the injector did",
}

// callerExemptMethods are method names that satisfy a standard-library
// interface by name (fmt.Stringer, error, sort.Interface) and so are called
// without being mentioned.
var callerExemptMethods = map[string]bool{"String": true, "Error": true, "Len": true, "Less": true, "Swap": true}

// TestEveryDeclarationHasACaller keeps the program what it runs: every
// top-level func, method and type under internal/ must be mentioned in a
// non-test file of this module or of benchmark/, outside its own
// declaration and outside declarations that are themselves unmentioned (the
// fixpoint: a helper only a dead function calls is dead too). It parses, it
// does not type-check, so a mention is resolved by scope only: pkg.Name
// (pkg an import of the file) keeps the top-level Name of that import's
// directory, a bare Name keeps its own package's, and a method is kept by a
// mention of its name anywhere — bare, package-qualified or as a field or
// method selector on any value. It therefore under-reports and never
// over-reports; what it does name has no caller.
func TestEveryDeclarationHasACaller(t *testing.T) {
	type decl struct {
		key      string         // pkg.Name, or pkg.Recv.Name for a method
		mentions map[*decl]bool // tracked declarations whose body mentions this name; nil key = untracked code
	}
	var tracked []*decl
	topLevel := map[string][]*decl{} // "dir.Name"; build-tagged twins share a key
	methods := map[string][]*decl{}  // by name alone
	type use struct {
		name string
		dir  string // the directory whose top-level name it is; "" for a selector on a value
		from *decl  // nil when the mention is outside every tracked declaration
	}
	var uses []use

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		imports := map[string]string{} // local name → the imported package's directory
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "rethinkkv/")
		}
		for _, d := range f.Decls {
			// self is the name this top-level declaration declares and from
			// its tracked record: both nil for vars, consts, init, and
			// everything outside internal/.
			var self *ast.Ident
			var from *decl
			track := func(id *ast.Ident, recv string) {
				self = id
				key := f.Name.Name + "." + recv + id.Name
				if _, ok := callerExempt[key]; !internal || ok || (recv != "" && callerExemptMethods[id.Name]) {
					return
				}
				from = &decl{key: key, mentions: map[*decl]bool{}}
				tracked = append(tracked, from)
				if recv != "" {
					methods[id.Name] = append(methods[id.Name], from)
				} else {
					topLevel[dir+"."+id.Name] = append(topLevel[dir+"."+id.Name], from)
				}
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					typ := d.Recv.List[0].Type
					if s, ok := typ.(*ast.StarExpr); ok {
						typ = s.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						recv = id.Name + "."
					}
				}
				if d.Name.Name != "init" && d.Name.Name != "main" {
					track(d.Name, recv)
				}
			case *ast.GenDecl:
				if d.Tok == token.TYPE && len(d.Specs) == 1 {
					track(d.Specs[0].(*ast.TypeSpec).Name, "")
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if imp, ok := imports[x.Name]; ok {
							uses = append(uses, use{n.Sel.Name, imp, from})
							return false
						}
					}
					uses = append(uses, use{n.Sel.Name, "", from})
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n != self {
						uses = append(uses, use{n.Name, dir, from})
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, u := range uses {
		for _, ds := range [][]*decl{methods[u.name], topLevel[u.dir+"."+u.name]} {
			for _, d := range ds {
				if d != u.from {
					d.mentions[u.from] = true
				}
			}
		}
	}
	dead := map[*decl]bool{}
	for changed := true; changed; {
		changed = false
		for _, d := range tracked {
			if dead[d] {
				continue
			}
			live := false
			for from := range d.mentions {
				if from == nil || !dead[from] {
					live = true
					break
				}
			}
			if !live {
				dead[d] = true
				changed = true
			}
		}
	}
	for _, d := range tracked {
		if dead[d] {
			t.Errorf("internal/%s has no caller outside tests: delete it, or move it into a _test.go if a test compares against it", d.key)
		}
	}
}

// TestEveryMethodHasACaller keeps the method registry what the program uses:
// every name rethinkkv.Methods() returns must appear, quoted, in some non-test
// .go file outside internal/compress (an experiment, example, command or
// serving path). A registry entry is a caller to
// TestEveryDeclarationHasACaller, so a method nothing selects by name would
// otherwise stand on its registration alone.
func TestEveryMethodHasACaller(t *testing.T) {
	var src strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path != "." && strings.HasPrefix(d.Name(), ".") || filepath.ToSlash(path) == "internal/compress") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		src.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	all := src.String()
	for _, name := range rethinkkv.Methods() {
		if !strings.Contains(all, `"`+name+`"`) {
			t.Errorf("method %q is named by no non-test file outside internal/compress: give it a caller or delete it", name)
		}
	}
}
