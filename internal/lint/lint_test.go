package lint_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer gets at least one true-positive and one deliberate
// false-positive-avoidance case in its testdata package; weakening an
// analyzer to a no-op fails the corresponding test because its want
// expectations go unmatched.

func TestHotPath(t *testing.T)    { linttest.Run(t, "hotpath", lint.HotPathAnalyzer) }
func TestHotRoots(t *testing.T)   { linttest.Run(t, "hotroots", lint.HotPathAnalyzer) }
func TestAtomicFunc(t *testing.T) { linttest.Run(t, "atomicfunc", lint.AtomicFuncAnalyzer) }
func TestReproAllow(t *testing.T) { linttest.Run(t, "reproallow", lint.ReproAllowAnalyzer) }

// hotx imports hotdep: the clean proof of hotdep.Clean and the missing
// one for hotdep.Dirty must cross the package boundary.
func TestHotPathCrossPackage(t *testing.T) { linttest.Run(t, "hotx", lint.HotPathAnalyzer) }

// The module itself must be lint-clean (default build, tests included),
// so a violated contract fails `go test ./...`. The other build
// configurations run in CI's lint job. The test also holds the unsafe
// boundary: repro/internal/pod is the one package whose non-test files
// import unsafe.
func TestModuleClean(t *testing.T) {
	diags, err := lint.Check(".", lint.Analyzers(), "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", d.Pos, d.Message)
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "repro/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		if pkg != "repro/internal/pod" && slices.Contains(strings.Fields(imports), "unsafe") {
			t.Errorf("%s imports unsafe: only repro/internal/pod may", pkg)
		}
	}
}
