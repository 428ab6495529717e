package lint

// unsafealias fences the unsafe surface: every unsafe.Pointer
// conversion — in either direction, plus unsafe.Slice/Add/String and
// pointer->uintptr laundering — must sit inside a function annotated
// //repro:unsafe-shape <why>, i.e. one of the blessed aliasing shapes
// (podBytes/podSlice/cutBytes/cutSlice from the image codec,
// the SIMD dispatch argument packing, the histogram shard hash).
// Additionally, a conversion that produces a *T with alignment > 1
// must have an alignment check in scope (a `% k` guard on a uintptr
// or an unsafe.Alignof), because a misaligned aliased load is exactly
// the crash the image restore path fail-closes against. Package-level
// initializers can't carry a function annotation and use a line-level
// //repro:allow unsafealias instead.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var UnsafeAliasAnalyzer = &Analyzer{
	Name: "unsafealias",
	Run:  runUnsafeAlias,
}

func runUnsafeAlias(pass *Pass) {
	idx := pass.dirs
	info := pass.TypesInfo

	isUnsafePtr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Kind() == types.UnsafePointer
	}

	// hasAlignGuard: the function body contains a modulo on a uintptr
	// (the `uintptr(p)%align == 0` idiom) or an unsafe.Alignof call.
	hasAlignGuard := func(body *ast.BlockStmt) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.REM {
					if b, ok := info.TypeOf(n.X).Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
						found = true
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "unsafe" && n.Sel.Name == "Alignof" {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// needsAlign: conversion target *T where T's alignment exceeds 1.
	needsAlign := func(t types.Type) bool {
		pt, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return false
		}
		elem := pt.Elem()
		if _, isParam := elem.(*types.TypeParam); isParam {
			return true // generic shape: alignment unknowable, demand the guard
		}
		if pass.TypesSizes == nil {
			return true
		}
		return pass.TypesSizes.Alignof(elem) > 1
	}

	for _, f := range pass.Files {
		// Map every node to its enclosing function declaration.
		for _, decl := range f.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			var blessed bool
			var body *ast.BlockStmt
			if isFn {
				blessed = idx.funcHas(fn, "unsafe-shape")
				body = fn.Body
			}
			where := func() string {
				if isFn {
					return declName(fn)
				}
				return "package-level initializer"
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				tv, ok := info.Types[call.Fun]
				var unsafeOp, toPtr bool
				var dst types.Type
				switch {
				case ok && tv.IsType():
					dst = tv.Type
					src := info.TypeOf(call.Args[0])
					switch {
					case isUnsafePtr(dst.Underlying()):
						unsafeOp = true // unsafe.Pointer(x)
					case src != nil && isUnsafePtr(src.Underlying()):
						unsafeOp = true // (*T)(p) or uintptr(p)
						toPtr = true
					}
				default:
					if fn := typeutilCallee(info, call); fn != nil && fn.Pkg() == nil {
						switch fn.Name() {
						case "Slice", "Add", "String", "SliceData", "StringData":
							// unsafe builtins that mint or shift aliases
							unsafeOp, toPtr = true, true
						}
					} else if sel, okSel := unparen(call.Fun).(*ast.SelectorExpr); okSel {
						if id, okID := sel.X.(*ast.Ident); okID && id.Name == "unsafe" {
							switch sel.Sel.Name {
							case "Slice", "Add", "String", "SliceData", "StringData":
								unsafeOp, toPtr = true, true
							}
						}
					}
				}
				if !unsafeOp {
					return true
				}
				if !blessed {
					report(pass, call.Pos(),
						"unsafe.Pointer conversion in %s: only //repro:unsafe-shape functions may alias memory",
						where())
					return true
				}
				if toPtr && dst != nil && needsAlign(dst) && body != nil && !hasAlignGuard(body) {
					report(pass, call.Pos(),
						"unsafe conversion to %s without an alignment check in scope (add a uintptr%%align guard)",
						dst.String())
				}
				return true
			})
		}
	}
}
