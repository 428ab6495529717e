package lint

// hotpath proves the zero-alloc contract: every function annotated
// //repro:hotpath, and everything reachable from it through the static
// in-package call graph, must not allocate. Allocation here means the
// operations the runtime can turn into a heap allocation on the
// classify path: make/new, growing append, composite-literal escapes,
// closures, goroutine spawns, map writes, channel ops, string
// conversions/concatenation, boxing a non-pointer into an interface,
// and calls into allocation-happy stdlib packages (fmt, strconv, time,
// ...). Cross-package calls are resolved through the CleanFact table
// (Pass.clean, filled bottom-up by this same analyzer as the driver
// walks the dependencies) plus a small whitelist of known-alloc-free
// stdlib packages; anything unprovable is a diagnostic. Documented cold exits
// (sampled time.Now, error-path fmt.Errorf) are suppressed line by
// line with //repro:allow hotpath -- <why>, or function-wide with
// //repro:coldpath <why>.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Run:  runHotPath,
}

// requiredHotRoots lists functions that MUST carry //repro:hotpath, so
// the annotation itself cannot silently rot: deleting the directive
// from a contract function is a pclint failure, not a lost check.
// Names are "Recv.Method" or "Func", keyed by package path.
var requiredHotRoots = map[string][]string{
	"repro/internal/engine": {
		"Engine.Classify", "Engine.ClassifyBatch", "Engine.scanBlock",
		"soaBank.scanWindow", "Handle.ClassifyBatchCached",
	},
	"repro/internal/flowcache": {"Cache.Probe", "Cache.ProbeBatch", "Cache.LookupBatch", "Cache.Insert"},
	"repro/internal/wire":      {"Reader.ReadBatch"},
	"repro/internal/stream":    {"appendIDs"},
	// Test fixture for the required-roots rule itself.
	"repro/internal/lint/testdata/src/hotroots": {"MustBeHot"},
}

// allocFreePackages are stdlib packages whose exported functions and
// methods never heap-allocate (for the subset a data plane calls).
var allocFreePackages = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"unsafe":          true,
	"runtime":         true,
	"internal/cpu":    true,
	"internal/abi":    true,
}

// allocHappyPackages always allocate (or are banned from hot paths for
// latency reasons) — calling into them is a violation even if a fact
// could be computed.
var allocHappyPackages = map[string]bool{
	"fmt": true, "log": true, "log/slog": true, "errors": true,
	"strconv": true, "sort": true, "time": true, "os": true,
	"reflect": true, "strings": true, "bytes": true, "regexp": true,
	"runtime/pprof": true, "runtime/trace": true, "runtime/metrics": true,
}

type hotChecker struct {
	pass *Pass
	idx  *directiveIndex
	// decls maps package-level function objects to their declarations.
	decls map[*types.Func]*ast.FuncDecl
	// summary memoizes the first violation found in a function (nil =
	// clean); inProgress breaks recursion cycles (a back edge cannot
	// introduce a new allocation site).
	summary    map[*ast.FuncDecl]*violation
	inProgress map[*ast.FuncDecl]bool
	// reported dedups sites reachable from several hot roots.
	reported map[token.Pos]bool
	// appendParent maps a call that is the sole RHS of an assignment
	// to that assignment, for the self-append test.
	appendParent map[*ast.CallExpr]*ast.AssignStmt
}

type violation struct {
	pos token.Pos
	msg string
}

func runHotPath(pass *Pass) {
	c := &hotChecker{
		pass:         pass,
		idx:          pass.dirs,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		summary:      make(map[*ast.FuncDecl]*violation),
		inProgress:   make(map[*ast.FuncDecl]bool),
		reported:     make(map[token.Pos]bool),
		appendParent: make(map[*ast.CallExpr]*ast.AssignStmt),
	}
	hot := make([]*ast.FuncDecl, 0, 8)
	hotNames := make(map[string]bool)
	for _, f := range pass.Files {
		c.recordAppendParents(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				c.decls[obj] = fn
			}
			if c.idx.funcHas(fn, "hotpath") {
				hot = append(hot, fn)
				hotNames[declName(fn)] = true
			}
		}
	}

	// Required roots: a contract function missing its annotation is
	// itself a diagnostic (reported at the function, so the fix is
	// obvious).
	for _, want := range requiredHotRoots[pass.Pkg.Path()] {
		if hotNames[want] {
			continue
		}
		if fn := c.findDecl(want); fn != nil {
			report(pass, fn.Pos(),
				"%s is a hot-path contract function and must carry //repro:hotpath", want)
		}
	}

	// Walk the reachable graph from every hot root, reporting each
	// violating site exactly once at its true position.
	seen := make(map[*ast.FuncDecl]bool)
	var visit func(fn *ast.FuncDecl)
	visit = func(fn *ast.FuncDecl) {
		if seen[fn] || fn.Body == nil || c.idx.funcHas(fn, "coldpath") {
			return
		}
		seen[fn] = true
		c.checkBody(fn, func(callee *ast.FuncDecl) { visit(callee) })
	}
	for _, fn := range hot {
		visit(fn)
	}

	// Record clean facts for cross-package composition: every function
	// whose transitive in-package summary is violation-free.
	for obj, fn := range c.decls {
		if c.summarize(fn) == nil {
			pass.clean[obj] = true
		}
	}
}

// declName renders a FuncDecl as "Recv.Method" or "Func".
func declName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := fn.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		// Generic receivers (Ident or IndexExpr base) reduce to the
		// type name.
		switch t := t.(type) {
		case *ast.Ident:
			return t.Name + "." + fn.Name.Name
		case *ast.IndexExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				return id.Name + "." + fn.Name.Name
			}
		}
	}
	return fn.Name.Name
}

func (c *hotChecker) findDecl(name string) *ast.FuncDecl {
	for _, fn := range c.decls {
		if declName(fn) == name {
			return fn
		}
	}
	return nil
}

// checkBody reports every allocation site in fn's own body and
// recurses (via visit) into same-package static callees.
func (c *hotChecker) checkBody(fn *ast.FuncDecl, visit func(*ast.FuncDecl)) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		v, callee := c.checkNode(n)
		if v != nil {
			if !c.reported[v.pos] {
				c.reported[v.pos] = true
				report(c.pass, v.pos, "hot path (via %s): %s", declName(fn), v.msg)
			}
			return false // one diagnostic per construct: don't descend into it
		}
		if callee != nil {
			visit(callee)
		}
		return true
	})
}

// summarize computes the first violation in fn or its same-package
// callees, memoized. Used for fact export and for judging callees.
func (c *hotChecker) summarize(fn *ast.FuncDecl) *violation {
	if v, ok := c.summary[fn]; ok {
		return v
	}
	if fn.Body == nil || c.idx.funcHas(fn, "coldpath") {
		c.summary[fn] = nil
		return nil
	}
	if c.inProgress[fn] {
		return nil // cycle back edge: no new sites beyond those found on the way in
	}
	c.inProgress[fn] = true
	var found *violation
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		v, callee := c.checkNode(n)
		if v != nil {
			found = v
			return false
		}
		if callee != nil {
			if cv := c.summarize(callee); cv != nil {
				found = &violation{n.Pos(), fmt.Sprintf("calls %s, which is not allocation-free (%s)",
					declName(callee), c.pass.Fset.Position(cv.pos))}
				return false
			}
		}
		return true
	})
	delete(c.inProgress, fn)
	c.summary[fn] = found
	return found
}

// checkNode classifies one AST node: a violation, a same-package
// static callee to follow, or neither. Allow-suppressed sites return
// neither.
func (c *hotChecker) checkNode(n ast.Node) (*violation, *ast.FuncDecl) {
	viol := func(pos token.Pos, format string, args ...interface{}) (*violation, *ast.FuncDecl) {
		if c.idx.allowed("hotpath", pos) {
			return nil, nil
		}
		return &violation{pos, fmt.Sprintf(format, args...)}, nil
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		return viol(n.Pos(), "go statement spawns a goroutine (allocates a stack)")
	case *ast.FuncLit:
		return viol(n.Pos(), "function literal allocates a closure")
	case *ast.SendStmt:
		return viol(n.Pos(), "channel send")
	case *ast.UnaryExpr:
		switch n.Op {
		case token.ARROW:
			return viol(n.Pos(), "channel receive")
		case token.AND:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				return viol(n.Pos(), "&composite literal may escape to the heap")
			}
		}
	case *ast.CompositeLit:
		switch c.pass.TypesInfo.TypeOf(n).Underlying().(type) {
		case *types.Slice, *types.Map:
			return viol(n.Pos(), "slice/map composite literal allocates")
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t, ok := c.pass.TypesInfo.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
				return viol(n.Pos(), "string concatenation allocates")
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			if _, ok := c.pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); ok {
				return viol(ix.Pos(), "map assignment may allocate")
			}
		}
	case *ast.CallExpr:
		return c.checkCall(n)
	}
	return nil, nil
}

func (c *hotChecker) checkCall(call *ast.CallExpr) (*violation, *ast.FuncDecl) {
	viol := func(format string, args ...interface{}) (*violation, *ast.FuncDecl) {
		if c.idx.allowed("hotpath", call.Pos()) {
			return nil, nil
		}
		return &violation{call.Pos(), fmt.Sprintf(format, args...)}, nil
	}
	info := c.pass.TypesInfo

	// Conversions: string<->[]byte/[]rune allocate; everything else
	// (numeric, pointer, unsafe) is free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type.Underlying()
		if b, ok := dst.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			if _, isStr := info.TypeOf(call.Args[0]).Underlying().(*types.Basic); !isStr {
				return viol("[]byte/[]rune-to-string conversion allocates")
			}
		}
		if _, ok := dst.(*types.Slice); ok {
			if b, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return viol("string-to-slice conversion allocates")
			}
		}
		if _, ok := dst.(*types.Interface); ok {
			if v := c.boxes(info.TypeOf(call.Args[0])); v != "" {
				return viol("conversion to interface boxes a %s (allocates)", v)
			}
		}
		return nil, nil
	}

	// Builtins. Qualified unsafe builtins (unsafe.Add, unsafe.Slice,
	// ...) alias memory rather than allocating; only internal/pod may
	// use them (TestModuleClean).
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, ok := info.Uses[sel.Sel].(*types.Builtin); ok {
			return nil, nil
		}
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				return viol("%s allocates", b.Name())
			case "append":
				if !c.isSelfAppend(call) {
					return viol("append with capacity growth allocates (only x = append(x, ...) amortized self-append is blessed)")
				}
				return nil, nil
			case "panic":
				return viol("panic boxes its argument and unwinds")
			default:
				return nil, nil
			}
		}
	}

	// Resolve the callee.
	obj := typeutilCallee(info, call)
	if obj == nil {
		return viol("dynamic call (func value or interface method) cannot be proven allocation-free")
	}
	pkg := obj.Pkg()
	if pkg == nil { // error.Error, unsafe builtins, etc.
		if obj.Name() == "Error" {
			return viol("dynamic error.Error call")
		}
		return nil, nil
	}
	if p := pkg.Path(); allocHappyPackages[p] {
		return viol("calls %s.%s — %s is banned on hot paths (allocates or syscalls)", p, obj.Name(), p)
	}
	// Interface-boxing check on arguments to a static callee.
	if sig, ok := obj.Type().(*types.Signature); ok {
		if v, pos := c.boxedArg(sig, call); v != "" {
			if c.idx.allowed("hotpath", pos) {
				return nil, nil
			}
			return &violation{pos, fmt.Sprintf("argument boxes a %s into an interface (allocates)", v)}, nil
		}
	}
	if pkg == c.pass.Pkg {
		if decl := c.decls[obj]; decl != nil {
			if c.idx.funcHas(decl, "coldpath") {
				return nil, nil
			}
			if c.idx.funcHas(decl, "hotpath") {
				return nil, nil // checked as its own root
			}
			return nil, decl
		}
		// A method promoted from an embedded std type, or an
		// interface method on a local type: no decl means no body we
		// can see.
		return viol("call to %s has no analyzable body in this package", obj.Name())
	}
	path := pkg.Path()
	if allocFreePackages[path] {
		return nil, nil
	}
	if c.pass.clean[obj] {
		return nil, nil
	}
	return viol("cannot prove %s.%s allocation-free (no CleanFact; annotate or allow)", path, obj.Name())
}

// boxes reports what non-pointer concrete kind would be boxed when
// converted to an interface ("" if the conversion cannot allocate).
func (c *hotChecker) boxes(t types.Type) string {
	if t == nil {
		return ""
	}
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return "" // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer {
			return ""
		}
		return u.String()
	default:
		return t.String()
	}
}

// boxedArg finds the first argument boxed into an interface parameter.
func (c *hotChecker) boxedArg(sig *types.Signature, call *ast.CallExpr) (string, token.Pos) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := c.pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue
		}
		if v := c.boxes(at); v != "" {
			return v, arg.Pos()
		}
	}
	return "", token.NoPos
}

// isSelfAppend reports the amortized pooled-buffer idiom
// `x = append(x, ...)` / `x.f = append(x.f, ...)`, whose steady state
// does not allocate.
func (c *hotChecker) isSelfAppend(call *ast.CallExpr) bool {
	// The call must be the sole RHS of an assignment to the same
	// expression as the first argument.
	asg, ok := c.appendParent[call]
	if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
		return false
	}
	return exprString(asg.Lhs[0]) == exprString(call.Args[0])
}

func (c *hotChecker) recordAppendParents(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(asg.Rhs) == 1 {
			if call, ok := asg.Rhs[0].(*ast.CallExpr); ok {
				c.appendParent[call] = asg
			}
		}
		return true
	})
}

// exprString renders a simple LHS/arg expression (idents, selectors,
// index expressions) for textual comparison.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return fmt.Sprintf("%T@%d", e, e.Pos())
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// typeutilCallee resolves the static *types.Func a call invokes, or
// nil for dynamic calls (mirrors typeutil.Callee without the builtin
// and type-expression cases, which callers handle first).
func typeutilCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					// Interface method: dynamic.
					if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
						return nil
					}
					return fn
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // qualified identifier pkg.F
		}
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation F[T](...).
		var x ast.Expr
		if ix, ok := fun.(*ast.IndexExpr); ok {
			x = ix.X
		} else {
			x = fun.(*ast.IndexListExpr).X
		}
		if id, ok := unparen(x).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}
