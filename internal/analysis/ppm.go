package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// corePath is the package defining the shared-array and VP types; the
// public ppm package aliases them, so all receivers resolve here.
const corePath = "ppm/internal/core"

// sharedCall is one recognized shared-array accessor call.
type sharedCall struct {
	call    *ast.CallExpr
	recv    ast.Expr     // receiver expression (the array)
	recvObj types.Object // root object of the receiver, if identifier-rooted
	method  string       // Read, Write, Add, ReadBlock, WriteBlock, AddBlock
	write   bool         // Write/Add family (mutates at commit)
	add     bool         // Add/AddBlock (combining, conflict-free)
	block   bool         // block accessor
	indices []ast.Expr   // scalar index, (r,c) pair, or block lo
	typ     string       // Global, Node or Global2D
}

// namedCoreType returns the name of the core named type underlying t
// (stripping pointers and generic instantiation), or "".
func namedCoreType(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != corePath {
		return ""
	}
	return obj.Name()
}

// recvRoot returns the types.Object at the root of a selector chain
// (x, x.f, x.f.g → object of x), or nil.
func recvRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// asSharedCall recognizes call as a shared-array accessor and describes
// it; ok is false otherwise.
func asSharedCall(info *types.Info, call *ast.CallExpr) (sharedCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return sharedCall{}, false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return sharedCall{}, false
	}
	typ := namedCoreType(selection.Recv())
	if typ != "Global" && typ != "Node" && typ != "Global2D" {
		return sharedCall{}, false
	}
	sc := sharedCall{
		call:    call,
		recv:    sel.X,
		recvObj: recvRoot(info, sel.X),
		method:  sel.Sel.Name,
		typ:     typ,
	}
	switch sc.method {
	case "Read":
		if typ == "Global2D" {
			if len(call.Args) != 3 {
				return sharedCall{}, false
			}
			sc.indices = call.Args[1:3]
		} else {
			if len(call.Args) != 2 {
				return sharedCall{}, false
			}
			sc.indices = call.Args[1:2]
		}
	case "Write", "Add":
		sc.write = true
		sc.add = sc.method == "Add"
		if typ == "Global2D" {
			if len(call.Args) != 4 {
				return sharedCall{}, false
			}
			sc.indices = call.Args[1:3]
		} else {
			if len(call.Args) != 3 {
				return sharedCall{}, false
			}
			sc.indices = call.Args[1:2]
		}
	case "ReadBlock":
		if typ == "Global2D" || len(call.Args) != 4 {
			return sharedCall{}, false
		}
		sc.block = true
		sc.indices = call.Args[1:2]
	case "WriteBlock", "AddBlock":
		if typ == "Global2D" || len(call.Args) != 3 {
			return sharedCall{}, false
		}
		sc.write = true
		sc.add = sc.method == "AddBlock"
		sc.block = true
		sc.indices = call.Args[1:2]
	default:
		return sharedCall{}, false
	}
	return sc, true
}

// isVPMethod reports whether call invokes the named method on *core.VP.
func isVPMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal || namedCoreType(selection.Recv()) != "VP" {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// isRuntimeMethod reports whether call invokes the named method on
// *core.Runtime.
func isRuntimeMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal || namedCoreType(selection.Recv()) != "Runtime" {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// phaseBodyLit returns the phase-body literal of a GlobalPhase/NodePhase
// call, or nil.
func phaseBodyLit(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if !isVPMethod(info, call, "GlobalPhase", "NodePhase") || len(call.Args) != 1 {
		return nil
	}
	lit, _ := call.Args[0].(*ast.FuncLit)
	return lit
}

// doBodyLit returns the VP-body literal of a Runtime.Do call, or nil.
func doBodyLit(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if !isRuntimeMethod(info, call, "Do") || len(call.Args) != 2 {
		return nil
	}
	lit, _ := call.Args[1].(*ast.FuncLit)
	return lit
}

// inspectStack walks root in source order, passing each node together
// with the stack of its ancestors (innermost last, including n itself).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(n, stack)
		return true
	})
}

// phaseCtx is the per-package phase-context index: which func literals
// are phase bodies, which are Do bodies, and which named functions may
// execute outside any phase (via a call-graph fixpoint over the package).
type phaseCtx struct {
	info      *types.Info
	phaseLits map[*ast.FuncLit]bool
	doLits    map[*ast.FuncLit]bool
	decls     map[*types.Func]*ast.FuncDecl
	// mayOutside marks named functions with at least one call site whose
	// context is outside every phase body.
	mayOutside map[*types.Func]bool
}

// callEdge is one package-local call site of a named function.
type callEdge struct {
	callee *types.Func
	stack  []ast.Node
}

// buildPhaseCtx indexes files and runs the call-graph fixpoint.
func buildPhaseCtx(info *types.Info, files []*ast.File) *phaseCtx {
	ctx := &phaseCtx{
		info:       info,
		phaseLits:  map[*ast.FuncLit]bool{},
		doLits:     map[*ast.FuncLit]bool{},
		decls:      map[*types.Func]*ast.FuncDecl{},
		mayOutside: map[*types.Func]bool{},
	}
	var edges []callEdge
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					ctx.decls[obj] = fd
					if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
						ctx.mayOutside[obj] = true
					}
				}
			}
		}
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if lit := phaseBodyLit(info, call); lit != nil {
				ctx.phaseLits[lit] = true
			}
			if lit := doBodyLit(info, call); lit != nil {
				ctx.doLits[lit] = true
			}
			if callee := ctx.localCallee(call); callee != nil {
				edges = append(edges, callEdge{callee: callee, stack: append([]ast.Node(nil), stack...)})
			}
		})
	}
	// Fixpoint: propagate "may run outside a phase" through call sites
	// that are not lexically inside a phase body.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if ctx.mayOutside[e.callee] {
				continue
			}
			if ctx.siteOutsidePhase(e.stack) {
				ctx.mayOutside[e.callee] = true
				changed = true
			}
		}
	}
	return ctx
}

// localCallee resolves call to a function or method declared in this
// package, or nil.
func (ctx *phaseCtx) localCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = ctx.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = ctx.info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := ctx.decls[fn]; !declared {
		// Methods on generic types resolve to the origin declaration.
		if orig := fn.Origin(); orig != nil {
			if _, declared := ctx.decls[orig]; declared {
				return orig
			}
		}
		return nil
	}
	return fn
}

// siteOutsidePhase reports whether the site at the top of stack can
// execute outside every phase body: it is not lexically inside a phase
// literal, and its innermost enclosing function may itself run outside a
// phase (a Do body, main/init, or a named function the fixpoint marked).
func (ctx *phaseCtx) siteOutsidePhase(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch h := stack[i].(type) {
		case *ast.FuncLit:
			if ctx.phaseLits[h] {
				return false
			}
			if ctx.doLits[h] {
				return true
			}
			// A plain literal runs where it is defined (a lexical
			// approximation: literals that escape are not tracked).
		case *ast.FuncDecl:
			if obj, ok := ctx.info.Defs[h.Name].(*types.Func); ok {
				return ctx.mayOutside[obj]
			}
			return true
		}
	}
	return true // file scope (var initializers)
}

// enclosingPhaseLit returns the innermost phase-body literal on stack,
// or nil when the site is not lexically inside a phase.
func (ctx *phaseCtx) enclosingPhaseLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		switch h := stack[i].(type) {
		case *ast.FuncLit:
			if ctx.phaseLits[h] {
				return h
			}
			if ctx.doLits[h] {
				return nil
			}
		case *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// rankDependent reports whether e mentions a per-rank quantity: a VP
// rank/node accessor, Runtime.NodeID, or an identifier initialized from
// one (a one-step taint, enough for the guard idioms in practice).
func rankDependent(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isVPMethod(info, x, "NodeRank", "GlobalRank", "Node", "K", "GlobalK") ||
				isRuntimeMethod(info, x, "NodeID") {
				dep = true
				return false
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && tainted[obj] {
				dep = true
				return false
			}
		}
		return !dep
	})
	return dep
}

// taintedVars collects objects assigned or declared (anywhere in root)
// from a rank-dependent expression — the "lo, hi := ChunkRange(n,
// vp.K(), vp.NodeRank())" pattern and friends — iterating to a fixed
// point so that chains through locals are caught.
func taintedVars(info *types.Info, root ast.Node) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(root, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch x := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = x.Lhs, x.Rhs
			case *ast.ValueSpec:
				for _, name := range x.Names {
					lhs = append(lhs, name)
				}
				rhs = x.Values
			default:
				return true
			}
			if !slices.ContainsFunc(rhs, func(e ast.Expr) bool { return rankDependent(info, e, tainted) }) {
				return true
			}
			for _, l := range lhs {
				if id, ok := l.(*ast.Ident); ok {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}
