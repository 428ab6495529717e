// Package lint holds the pclint analyzers and their driver: passes
// over go/ast and go/types that prove the engine's performance
// contracts — zero-alloc hot paths, typed atomics only — statically,
// over the whole call graph. Check (load.go) is the one driver:
// cmd/pclint, TestModuleClean and the analyzers' own testdata all run
// through it. DESIGN.md §14 documents each invariant; this file holds
// the analyzer types and the shared directive vocabulary. Two contracts
// are held elsewhere: the copy-on-write arena protocol by a property
// test (engine's TestPatchLeavesReceiverUntouched), and the unsafe
// surface by a package boundary (internal/pod is the only unsafe
// importer, which TestModuleClean checks).
//
// Directives are magic comments (no space after //, like //go:):
//
//	//repro:hotpath
//	    On a function: the function and everything it reaches must not
//	    allocate. Checked by the hotpath analyzer.
//	//repro:coldpath <why>
//	    On a function: excluded from hot-path traversal even when
//	    called from hot code (a slow/error exit). Justification is
//	    mandatory.
//	//repro:allow <analyzer> -- <why>
//	    On (or on the line above) an offending line: suppress one
//	    analyzer's diagnostic at that line. The justification after
//	    "--" is mandatory and itself linted (reproallow analyzer).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check; its name is what //repro:allow targets.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass is one analyzer's run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	*Package

	// dirs is the package's //repro: directives, collected once and
	// shared by every analyzer.
	dirs *directiveIndex
	// clean is the CleanFact table: functions hotpath has proven
	// allocation-free. One map serves every package of a Check, so a
	// proof made in a dependency is visible to its importers.
	clean  map[*types.Func]bool
	report func(token.Pos, string)
}

// Reportf emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzers returns the full pclint suite, in the order it runs. The
// names are the valid targets of //repro:allow.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAnalyzer,
		AtomicFuncAnalyzer,
		ReproAllowAnalyzer,
	}
}

const directivePrefix = "//repro:"

// directive is one parsed //repro: comment.
type directive struct {
	pos  token.Pos
	kind string // "hotpath", "coldpath", "allow"
	// arg is the analyzer name for allow, empty otherwise.
	arg string
	// why is the mandatory justification (after "--" for allow; the
	// whole remainder for coldpath).
	why string
}

// parseDirective parses a single comment; ok is false if it is not a
// //repro: directive at all.
func parseDirective(c *ast.Comment) (d directive, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return d, false
	}
	d.pos = c.Pos()
	rest := strings.TrimPrefix(text, directivePrefix)
	kind, tail, _ := strings.Cut(rest, " ")
	d.kind = kind
	tail = strings.TrimSpace(tail)
	switch kind {
	case "allow":
		arg, why, found := strings.Cut(tail, "--")
		d.arg = strings.TrimSpace(arg)
		if found {
			d.why = strings.TrimSpace(why)
		}
	default:
		d.why = tail
	}
	return d, true
}

// directiveIndex holds every //repro: directive in a package, indexed
// for the two lookups analyzers need: per-function annotations and
// per-line allows.
type directiveIndex struct {
	fset *token.FileSet
	// funcDir maps a function declaration to its directives (from the
	// doc comment group).
	funcDir map[*ast.FuncDecl][]directive
	// allows maps file -> line -> analyzer names allowed on that line.
	// An allow on line N suppresses diagnostics on lines N and N+1, so
	// the directive can sit on its own line above the offending one.
	allows map[string]map[int]map[string]bool
	// all is every directive, for reproallow's own validation sweep.
	all []directive
}

// collectDirectives scans all comments of one package.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		fset:    fset,
		funcDir: make(map[*ast.FuncDecl][]directive),
		allows:  make(map[string]map[int]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				idx.all = append(idx.all, d)
				if d.kind == "allow" && d.arg != "" {
					p := fset.Position(c.Pos())
					byLine := idx.allows[p.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						idx.allows[p.Filename] = byLine
					}
					set := byLine[p.Line]
					if set == nil {
						set = make(map[string]bool)
						byLine[p.Line] = set
					}
					set[d.arg] = true
				}
			}
		}
		// Attach doc-comment directives to function declarations.
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				for _, c := range fn.Doc.List {
					if d, ok := parseDirective(c); ok {
						idx.funcDir[fn] = append(idx.funcDir[fn], d)
					}
				}
			}
		}
	}
	return idx
}

// funcHas reports whether fn carries a directive of the given kind.
func (idx *directiveIndex) funcHas(fn *ast.FuncDecl, kind string) bool {
	for _, d := range idx.funcDir[fn] {
		if d.kind == kind {
			return true
		}
	}
	return false
}

// allowed reports whether a diagnostic from the named analyzer at pos
// is suppressed by a //repro:allow on the same line or the line above.
func (idx *directiveIndex) allowed(name string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	byLine := idx.allows[p.Filename]
	if byLine == nil {
		return false
	}
	return byLine[p.Line][name] || byLine[p.Line-1][name]
}

// report emits a diagnostic unless an allow suppresses it.
func report(pass *Pass, pos token.Pos, format string, args ...interface{}) {
	if pass.dirs.allowed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}
