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
