// Package linttest checks analyzers against testdata packages: it runs
// them over testdata/src/<pkg> with lint.Check — the driver pclint
// uses — and matches the diagnostics against `// want "regexp"`
// comments, reporting both missed and unexpected diagnostics.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run analyzes testdata/src/<pkg> (relative to the test's working
// directory; its imports are loaded and analyzed with it, as
// dependencies) with a and compares the diagnostics against the
// // want expectations in pkg's files.
func Run(t *testing.T, pkg string, a *lint.Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Check(dir, []*lint.Analyzer{a}, ".")
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	checkExpectations(t, names, diags)
}

// expectation is one `// want "re"` on a line; several regexps may sit
// on one line and each must match a distinct diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE matches `// want "re"...` (expectation on its own line) and
// `// want-prev "re"...` (expectation for the line above — used when
// the diagnostic lands on a //repro: directive line, which cannot
// carry a second comment).
var wantRE = regexp.MustCompile(`// want(-prev)? (.*)$`)

// quotedRE matches one double-quoted Go string in a want clause.
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func checkExpectations(t *testing.T, names []string, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			line := i + 1
			pos := fmt.Sprintf("%s:%d", name, line)
			if m[1] == "-prev" {
				line--
			}
			for _, q := range quotedRE.FindAllString(m[2], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants = append(wants, &expectation{name, line, re, false})
			}
		}
	}

diag:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue diag
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
