package analysis

// serialescape: VP code mutating state that outlives the VP instance.
// All K VP instances of a Do call share the enclosing closure
// environment, so an assignment to a variable declared outside the VP
// function body — a host local captured by the closure, a package
// variable, or pointed-to node state passed in by reference — is a
// plain data race between VP instances (and with the host) that the
// phase commit protocol does nothing to order. The sanctioned escape
// hatch is Proc.Serial / Runtime.Serial, which runs the update in the
// runtime's serial section.
//
// The check is summary-driven at helper boundaries: a call that passes
// outside-declared state to a package-local function which stores
// through that parameter (funcSummary.mutatesParam) is reported at the
// call site, so `step(s, ...)` mutating s.VX through a *State parameter
// is caught without expanding the helper.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// constIntOf extracts an exact integer constant from the type checker.
func constIntOf(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// SerialEscapeAnalyzer reports unserialized mutation of external state
// from VP code.
var SerialEscapeAnalyzer = &Analyzer{
	Name: "serialescape",
	Doc: "report VP code that mutates host or node state declared outside the VP function " +
		"without a Serial wrapper: concurrent VP instances race on such state",
	Run: runSerialEscape,
}

func runSerialEscape(pass *Pass) error {
	px := pass.Index()
	for _, u := range px.units {
		if !u.isVPEntry() {
			continue
		}
		if vpEntrySingleVP(px, u) {
			continue // Do(1, ...): a single instance cannot race with itself
		}
		checkSerialEscape(pass, px, u)
	}
	return nil
}

// vpEntrySingleVP reports whether every Do site reaching this unit uses
// a constant K of 1.
func vpEntrySingleVP(px *PkgIndex, u *unit) bool {
	ks := px.doK[u.node]
	if len(ks) == 0 {
		return false
	}
	for _, k := range ks {
		v, ok := constIntOf(px.info, k)
		if !ok || v != 1 {
			return false
		}
	}
	return true
}

func checkSerialEscape(pass *Pass, px *PkgIndex, root *unit) {
	inspectStack(root.body, func(n ast.Node, stack []ast.Node) {
		// Code inside a nested VP entry (another Do body, a VP helper
		// literal) belongs to that root's own check; code inside a
		// Serial callback is the sanctioned escape hatch.
		for _, anc := range stack {
			if lit, ok := anc.(*ast.FuncLit); ok {
				if nu := px.units[lit]; nu != nil && nu != root && nu.isVPEntry() {
					return
				}
			}
			if call, ok := anc.(*ast.CallExpr); ok && isSerialCall(px.info, call) {
				return
			}
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				reportEscapeTarget(pass, px, root, lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			reportEscapeTarget(pass, px, root, x.X, x.Pos())
		case *ast.CallExpr:
			callee := px.localCallee(x)
			if callee == nil || callee.fn == nil {
				return
			}
			s := px.summaryOf(callee.fn)
			if s == nil {
				return
			}
			for i, arg := range x.Args {
				if i >= len(s.mutatesParam) || !s.mutatesParam[i] {
					continue
				}
				obj := exprRootVar(px.info, arg)
				if obj != nil && declaredOutsideUnit(root, obj) && !isSharedArrayVar(obj) {
					pass.Reportf(x.Pos(),
						"VP code passes %s, declared outside the VP function, to %s which mutates it: "+
							"concurrent VP instances race on this state — wrap the update in Serial or make the state per-VP",
						obj.Name(), callee.fn.Name())
				}
			}
		}
	})
}

// reportEscapeTarget reports lhs when its root variable is declared
// outside the VP entry unit.
func reportEscapeTarget(pass *Pass, px *PkgIndex, root *unit, lhs ast.Expr, pos token.Pos) {
	obj := exprRootVar(px.info, lhs)
	if obj == nil || !declaredOutsideUnit(root, obj) || isSharedArrayVar(obj) {
		return
	}
	pass.Reportf(pos,
		"VP code mutates %s, which is declared outside the VP function: "+
			"concurrent VP instances race on it — wrap the update in Serial or make it per-VP state",
		obj.Name())
}

// declaredOutsideUnit reports whether obj's declaration lies outside
// u's extent (parameters and receiver count as inside).
func declaredOutsideUnit(u *unit, obj types.Object) bool {
	return obj.Pos() < u.node.Pos() || obj.Pos() >= u.node.End()
}

// exprRootVar unwraps an assignment target or argument to its root
// variable: s.VX[i] -> s, *p -> p, x -> x. Blank and field identifiers
// yield nil.
func exprRootVar(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSharedArrayVar reports whether obj holds a shared array handle
// (Global/Node/...): their accessor methods, not Go assignments, are
// the mutation surface the other rules govern.
func isSharedArrayVar(obj types.Object) bool {
	return namedCoreType(obj.Type()) != ""
}

// isSerialCall recognizes the Serial method of the runtime layers
// (core.Runtime, cluster.Proc).
func isSerialCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Serial" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "ppm" || p == corePath || p == "ppm/internal/cluster"
}
