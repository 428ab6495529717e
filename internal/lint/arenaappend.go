package lint

// arenaappend enforces the copy-on-write protocol the epoch pipeline
// rests on (PR 5/7): fields annotated //repro:arena are published,
// append-only arenas — concurrent readers walk them lock-free while a
// writer extends them. Only functions annotated //repro:arena-writer
// (the Compile/Patch/PatchBatch publish paths, image restore, and
// explicitly-blessed test fixtures) may mutate them: append, assign,
// truncate, or indexed-write (writers may index-assign only into
// slots they themselves relocated — that part stays a code-review
// invariant; the analyzer pins *who* may write at all). Everywhere
// else any mutation of an arena field is a diagnostic: an
// indexed-assign after publish is exactly the in-place edit that
// corrupts a snapshot another goroutine is reading.

import (
	"go/ast"
	"go/types"
)

var ArenaAppendAnalyzer = &Analyzer{
	Name: "arenaappend",
	Run:  runArenaAppend,
}

func runArenaAppend(pass *Pass) {
	idx := pass.dirs

	// Collect annotated arena fields. They are unexported, so no other
	// package can name one: the set is complete within this pass.
	arenas := make(map[*types.Var]bool)
	for field, dirs := range idx.fieldDir {
		for _, d := range dirs {
			if d.kind != "arena" {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					arenas[v] = true
				}
			}
		}
	}

	isArena := func(e ast.Expr) *types.Var {
		// Walk down index/slice/paren chains to the base selector:
		// e.soa.words[g][d], b.words[i:j], (e.kids)[k] all resolve to
		// the underlying field.
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				v := fieldObject(pass.TypesInfo, x)
				if v == nil {
					return nil
				}
				if arenas[v] {
					return v
				}
				// Nested path (e.soa.words): keep descending — the leaf
				// field wasn't an arena but a parent selector can't be
				// one either (arenas are slice/array fields), so stop.
				return nil
			default:
				return nil
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if idx.funcHas(fn, "arena-writer") {
				continue // blessed publish path
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if v := isArena(lhs); v != nil {
							verb := "assigns"
							if _, ok := lhs.(*ast.IndexExpr); ok {
								verb = "indexed-writes"
							}
							report(pass, lhs.Pos(),
								"%s arena field %s outside an //repro:arena-writer function (COW protocol violation)",
								verb, v.Name())
						}
					}
				case *ast.IncDecStmt:
					if v := isArena(n.X); v != nil {
						report(pass, n.X.Pos(),
							"mutates arena field %s outside an //repro:arena-writer function", v.Name())
					}
				case *ast.CallExpr:
					// append(e.kids, ...) — even without assigning the
					// result, the append may write into the published
					// backing array's spare capacity.
					if id, ok := unparen(n.Fun).(*ast.Ident); ok {
						if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 0 {
							if v := isArena(n.Args[0]); v != nil {
								report(pass, n.Pos(),
									"appends to arena field %s outside an //repro:arena-writer function", v.Name())
							}
						}
					}
				}
				return true
			})
		}
	}
}

// fieldObject resolves a selector to the struct field it reads or
// writes, or nil if it is not a field access.
func fieldObject(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}
