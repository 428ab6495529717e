package lint

// atomicfunc keeps the memory model in the type system: shared words
// are atomic.Uint64/Int64/Pointer values, whose only access is the
// atomic API, so a plain read of an atomically-published word cannot
// be written. The one way back to that bug is the address-style
// package functions (atomic.AddUint64(&s.f, 1)), which work on any
// plain field; calling one is a diagnostic.

import "go/ast"

var AtomicFuncAnalyzer = &Analyzer{
	Name: "atomicfunc",
	Run:  runAtomicFunc,
}

func runAtomicFunc(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fn := typeutilCallee(pass.TypesInfo, call)
				if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
					report(pass, call.Pos(), "call to sync/atomic.%s: the field it addresses can also be accessed plainly, which is a data race (use a typed atomic)", fn.Name())
				}
			}
			return true
		})
	}
}
