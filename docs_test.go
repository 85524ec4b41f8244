package rethinkkv_test

import (
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
	docMakeRef  = regexp.MustCompile(`(?m)^[\x60\s]*make[ \t]+([a-z][\w-]*)`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
)

// TestDocsPointAtThingsThatExist resolves every cmd/<name>, examples/<name>,
// `make <target>`, *.json file and Test*/Benchmark*/Fuzz* identifier that
// README.md, DESIGN.md and the verify skill mention, and keeps the retired
// second benchmark from being cited again.
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
		// inline code span or of a line inside a fenced block.
		for _, span := range docCodeSpan.FindAllString(text, -1) {
			for _, m := range docMakeRef.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: make %s is not a Makefile target", doc, m[1])
				}
			}
		}
	}
}
