package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one package type-checked from source.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	TypesSizes types.Sizes
	// DepOnly: reached only as a dependency of the patterns. Analyzed
	// for its facts; its diagnostics are dropped, as under go vet.
	DepOnly bool
}

// listed is what the loader reads of a `go list -json` record.
type listed struct {
	ImportPath string // "p", or "p [q.test]" for a test variant
	Dir        string
	GoFiles    []string          // test variants include the _test.go files
	ImportMap  map[string]string // source import path -> ImportPath, where they differ
	Export     string
	Standard   bool
	DepOnly    bool
}

type loader struct {
	fset   *token.FileSet
	sizes  types.Sizes
	listed map[string]*listed
	std    types.Importer // export data of the standard library
	loaded map[string]*types.Package
	out    []*Package
}

// Load resolves args (go list flags and package patterns) with the go
// command, run in dir, and type-checks every non-standard package in
// the result — the matches, their test variants and their dependencies
// — from source, so objects are shared between importer and imported.
// The go command picks the files: build tags, GOOS/GOARCH and _test.go
// handling are its own. The standard library comes from the export
// data the same go list run reports. Packages are returned in
// dependency order.
func Load(dir string, args ...string) ([]*Package, error) {
	goCmd := func(args ...string) ([]byte, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out, nil
	}
	arch, err := goCmd("env", "GOARCH")
	if err != nil {
		return nil, err
	}
	out, err := goCmd(append([]string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,ImportMap,Export,Standard,DepOnly"}, args...)...)
	if err != nil {
		return nil, err
	}

	l := &loader{
		fset:   token.NewFileSet(),
		sizes:  types.SizesFor("gc", strings.TrimSpace(string(arch))),
		listed: make(map[string]*listed),
		loaded: make(map[string]*types.Package),
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(l.listed[path].Export)
	})
	var order []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		l.listed[p.ImportPath] = p
		order = append(order, p.ImportPath)
	}
	for _, path := range order {
		// "p.test" is the generated test main; nothing to analyze.
		if strings.HasSuffix(path, ".test") {
			continue
		}
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// load returns the types of the listed package path, type-checking it
// (and, through the importer, its dependencies first) on first use.
func (l *loader) load(path string) (*types.Package, error) {
	p := l.listed[path]
	switch {
	case p == nil:
		return nil, fmt.Errorf("package %s not in go list output", path)
	case p.Standard:
		return l.std.Import(path)
	case l.loaded[path] != nil:
		return l.loaded[path], nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Sizes: l.sizes,
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if to, ok := p.ImportMap[imp]; ok {
				imp = to
			}
			return l.load(imp)
		}),
	}
	// A test variant "p [q.test]" type-checks under the plain path p.
	name, _, _ := strings.Cut(path, " ")
	tpkg, err := conf.Check(name, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.loaded[path] = tpkg
	l.out = append(l.out, &Package{l.fset, files, tpkg, info, l.sizes, p.DepOnly})
	return tpkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Diagnostic is one finding, with its position resolved.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Check loads args (see Load) and runs the analyzers over every loaded
// package in dependency order with one shared fact table. It returns
// the diagnostics of the packages the patterns matched, sorted by
// position; a site seen in both a package and its test variant is
// reported once.
func Check(dir string, analyzers []*Analyzer, args ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, args...)
	if err != nil {
		return nil, err
	}
	clean := make(map[*types.Func]bool)
	seen := make(map[Diagnostic]bool)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a, Package: pkg, dirs: dirs, clean: clean,
				report: func(pos token.Pos, msg string) {
					d := Diagnostic{pkg.Fset.Position(pos), msg}
					if !pkg.DepOnly && !seen[d] {
						seen[d] = true
						diags = append(diags, d)
					}
				},
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags, nil
}
