package analysis

import (
	"go/ast"
	"go/types"
)

// LocalAliasAnalyzer flags node-level base-image aliases leaking into VP
// code: a slice obtained from Global.Local/Node.Local before a Do and
// used inside VP code. The slice aliases the array's committed base
// image; touching it from VP code bypasses the begin-of-phase/commit
// discipline entirely. Calling Local/At inside a Do is not a finding:
// the runtime panics on every such call (rt.inDo). A retained slice is
// invisible to it.
var LocalAliasAnalyzer = &Analyzer{
	Name: "localalias",
	Doc: "report Local() slices captured before a Do and used inside VP code: " +
		"they alias the base image and bypass phase semantics",
	Run: runLocalAlias,
}

func runLocalAlias(pass *Pass) error {
	px := pass.Index()
	for _, f := range pass.Files {
		aliases := localSlices(pass.TypesInfo, f)
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || !insideVPCode(px, stack) {
				return
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil && aliases[obj] != "" {
				pass.Reportf(id.Pos(),
					"%s aliases the base image of shared array (via %s) and is used inside a Do body: reads and writes through it bypass phase semantics", id.Name, aliases[obj])
			}
		})
	}
	return nil
}

// localSlices maps variables assigned from a Local() call to the call's
// printed form.
func localSlices(info *types.Info, f *ast.File) map[types.Object]string {
	aliases := map[types.Object]string{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		m, ok := localCall(info, call)
		if !ok {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			aliases[obj] = m
		} else if obj := info.Uses[id]; obj != nil {
			aliases[obj] = m
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					record(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					record(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	return aliases
}

// localCall recognizes a Local call on the shared-array types and
// returns a printable description. (At returns a copy of one element,
// so a variable holding its result aliases nothing.)
func localCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	if typ := namedCoreType(selection.Recv()); (typ != "Global" && typ != "Node") || sel.Sel.Name != "Local" {
		return "", false
	}
	return types.ExprString(sel.X) + ".Local", true
}

// insideVPCode reports whether the innermost function on stack executes
// as VP code: a Do-body literal, anything nested in one (phase bodies
// included — the alias hazard is the same there), or a named function
// taking a *core.VP parameter (a VP helper called from Do bodies, which
// the pre-index version of this rule was blind to).
func insideVPCode(px *PkgIndex, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch h := stack[i].(type) {
		case *ast.FuncLit:
			if u := px.units[h]; u != nil {
				return px.vpRoot(u) != nil
			}
		case *ast.FuncDecl:
			if u := px.units[h]; u != nil {
				return px.vpRoot(u) != nil
			}
			return false
		}
	}
	return false
}
