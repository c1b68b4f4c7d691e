package gupcxx_test

// The documents name code by identifier; this check keeps those names
// true. A backticked span in DESIGN.md, README.md or docs/TUTORIAL.md
// that is a Go identifier — an exported CamelCase name, optionally
// qualified as pkg.Name, Type.Method or pkg.Type.Method — must name words
// that occur in some .go file of the repository, so renaming or deleting
// code without updating the documents fails here. Test*, Benchmark* and
// Fuzz* functions are exported CamelCase names too.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// checkedDocs are the documents whose identifiers must exist.
var checkedDocs = []string{"DESIGN.md", "README.md", "docs/TUTORIAL.md"}

var (
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
	identSpan = regexp.MustCompile(`^(?:[a-z]\w*\.)?(?:[A-Z]\w*\.)?[A-Z]\w*(?:\(\))?$`)
	word      = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// camel reports whether w is an exported CamelCase name: upper-case
// first and a lower-case letter somewhere, so acronyms and environment
// variables (UDP, GUPCXX_UDP_FAULT) are left alone.
func camel(w string) bool {
	return unicode.IsUpper(rune(w[0])) && strings.IndexFunc(w, unicode.IsLower) >= 0
}

// goWords collects every word of every .go file under root.
func goWords(t *testing.T, root string) map[string]bool {
	t.Helper()
	words := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .bench_build
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, w := range word.FindAllString(string(src), -1) {
			words[w] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return words
}

func TestDocsNameExistingIdentifiers(t *testing.T) {
	words := goWords(t, ".")
	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if !identSpan.MatchString(m[1]) {
					continue
				}
				for _, w := range word.FindAllString(m[1], -1) {
					if camel(w) && !words[w] {
						t.Errorf("%s:%d: `%s` names %s, which appears in no .go file", doc, i+1, m[1], w)
					}
				}
			}
		}
	}
}
