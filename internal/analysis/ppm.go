package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// corePath is the package defining the shared-array and VP types; the
// public ppm package aliases them, so all receivers resolve here.
const corePath = "ppm/internal/core"

// sharedCall is one recognized shared-array update: a Write, Add,
// WriteBlock or AddBlock call, which takes effect at the commit.
type sharedCall struct {
	call    *ast.CallExpr
	recv    ast.Expr   // receiver expression (the array)
	add     bool       // Add/AddBlock (combining, conflict-free)
	block   bool       // block accessor
	indices []ast.Expr // scalar index, (r,c) pair, or block lo
	typ     string     // Global, Node or Global2D
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

// asSharedCall recognizes call as a shared-array update and describes
// it; ok is false otherwise (reads included: no rule judges them).
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
	sc := sharedCall{call: call, recv: sel.X, typ: typ}
	switch method := sel.Sel.Name; method {
	case "Write", "Add":
		sc.add = method == "Add"
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
	case "WriteBlock", "AddBlock":
		if typ == "Global2D" || len(call.Args) != 3 {
			return sharedCall{}, false
		}
		sc.add = method == "AddBlock"
		sc.block = true
		sc.indices = call.Args[1:2]
	default:
		return sharedCall{}, false
	}
	return sc, true
}

// isVPMethod reports whether call invokes one of the named methods on
// *core.VP.
func isVPMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	return isCoreMethod(info, call, "VP", names)
}

// isRuntimeMethod reports whether call invokes one of the named methods
// on *core.Runtime.
func isRuntimeMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	return isCoreMethod(info, call, "Runtime", names)
}

func isCoreMethod(info *types.Info, call *ast.CallExpr, recv string, names []string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := info.Selections[sel]
	return selection != nil && selection.Kind() == types.MethodVal &&
		namedCoreType(selection.Recv()) == recv && slices.Contains(names, sel.Sel.Name)
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
// are phase bodies and which are Do bodies.
type phaseCtx struct {
	phaseLits map[*ast.FuncLit]bool
	doLits    map[*ast.FuncLit]bool
}

// buildPhaseCtx indexes the phase and Do body literals of files.
func buildPhaseCtx(info *types.Info, files []*ast.File) *phaseCtx {
	ctx := &phaseCtx{
		phaseLits: map[*ast.FuncLit]bool{},
		doLits:    map[*ast.FuncLit]bool{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if lit := phaseBodyLit(info, call); lit != nil {
					ctx.phaseLits[lit] = true
				}
				if lit := doBodyLit(info, call); lit != nil {
					ctx.doLits[lit] = true
				}
			}
			return true
		})
	}
	return ctx
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
