package analysis

// The interprocedural layer: every function declaration and function
// literal in a package becomes a "unit" with lazily built reaching
// definitions; call sites into package-local functions are expanded by
// substituting the caller's argument expressions for the callee's
// parameters (a "frame"), so a helper doing sh.Write(i, v) is analyzed
// at each call site with the caller's arguments in place.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A unit is one function body: a declaration or a literal.
type unit struct {
	node   ast.Node // *ast.FuncDecl or *ast.FuncLit
	body   *ast.BlockStmt
	ftype  *ast.FuncType
	parent *unit // lexically enclosing unit (nil for declarations)
	// vpParam is the *core.VP parameter's object, when the unit is VP
	// code by signature.
	vpParam types.Object
	isDo    bool // Runtime.Do body literal

	reach *reaching
}

// isVPEntry reports whether the unit starts VP execution: a Do body or
// any function taking a *core.VP (named VP functions, helpers).
func (u *unit) isVPEntry() bool { return u.isDo || u.vpParam != nil }

// PkgIndex is the shared per-package index every analyzer builds on:
// units, the phase and Do body literals, and Do-site bookkeeping. It is
// built once per package and cached on Package.
type PkgIndex struct {
	pkg  *Package
	info *types.Info
	fset *token.FileSet
	ctx  *phaseCtx

	units  map[ast.Node]*unit
	byFunc map[*types.Func]*unit
	// litBind maps a variable to the unique function literal assigned to
	// it (renderer := func(vp *ppm.VP) {...}); ambiguous bindings are
	// dropped.
	litBind map[types.Object]*ast.FuncLit
	// doK maps a VP body node (literal, or the declaration of a named VP
	// function passed to Do), and every function it calls, to the K
	// expressions of the Do call sites that reach it.
	doK map[ast.Node][]ast.Expr
}

// Index returns the package's interprocedural index, building it on
// first use and sharing it across all analyzers of the package.
func (p *Pass) Index() *PkgIndex {
	if p.pkg.index == nil {
		p.pkg.index = buildIndex(p.pkg)
	}
	return p.pkg.index
}

func buildIndex(pkg *Package) *PkgIndex {
	px := &PkgIndex{
		pkg:     pkg,
		info:    pkg.TypesInfo,
		fset:    pkg.Fset,
		ctx:     buildPhaseCtx(pkg.TypesInfo, pkg.Files),
		units:   map[ast.Node]*unit{},
		byFunc:  map[*types.Func]*unit{},
		litBind: map[types.Object]*ast.FuncLit{},
		doK:     map[ast.Node][]ast.Expr{},
	}
	vpParamOf := func(ft *ast.FuncType) types.Object {
		if ft == nil || ft.Params == nil {
			return nil
		}
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				if obj := px.info.Defs[name]; obj != nil && namedCoreType(obj.Type()) == "VP" {
					return obj
				}
			}
		}
		return nil
	}
	litBound := map[types.Object]int{}
	for _, f := range pkg.Files {
		var stack []*unit
		inspectStack(f, func(n ast.Node, astStack []ast.Node) {
			// Maintain the lexical unit stack from the ancestor stack.
			stack = stack[:0]
			for _, a := range astStack {
				if u := px.units[a]; u != nil {
					stack = append(stack, u)
				}
			}
			var parent *unit
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body == nil {
					return
				}
				u := &unit{node: x, body: x.Body, ftype: x.Type, vpParam: vpParamOf(x.Type)}
				if obj, ok := px.info.Defs[x.Name].(*types.Func); ok {
					px.byFunc[obj] = u
				}
				px.units[x] = u
			case *ast.FuncLit:
				u := &unit{node: x, body: x.Body, ftype: x.Type, parent: parent, vpParam: vpParamOf(x.Type)}
				u.isDo = px.ctx.doLits[x]
				px.units[x] = u
			case *ast.AssignStmt:
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					if lit, ok := x.Rhs[0].(*ast.FuncLit); ok {
						if id, ok := x.Lhs[0].(*ast.Ident); ok {
							obj := px.info.Defs[id]
							if obj == nil {
								obj = px.info.Uses[id]
							}
							if obj != nil {
								litBound[obj]++
								if litBound[obj] == 1 {
									px.litBind[obj] = lit
								} else {
									delete(px.litBind, obj)
								}
							}
						}
					}
				}
			}
		})
	}
	// Do-site bookkeeping: which K expressions start which VP bodies.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRuntimeMethod(px.info, call, "Do") || len(call.Args) != 2 {
				return true
			}
			var body ast.Node
			switch arg := call.Args[1].(type) {
			case *ast.FuncLit:
				body = arg
			case *ast.Ident:
				if obj := px.info.Uses[arg]; obj != nil {
					if lit := px.litBind[obj]; lit != nil {
						body = lit
					} else if fn, ok := obj.(*types.Func); ok {
						if u := px.byFunc[fn]; u != nil {
							body = u.node
						}
					}
				}
			}
			if body != nil {
				px.reachDo(body, call.Args[0], map[ast.Node]bool{body: true})
			}
			return true
		})
	}
	return px
}

// reachDo records k for body and for every package-local function body
// calls, transitively: a VP function that a Do(1, ...) reaches through
// a helper runs in one VP per node too.
func (px *PkgIndex) reachDo(body ast.Node, k ast.Expr, seen map[ast.Node]bool) {
	px.doK[body] = append(px.doK[body], k)
	u := px.units[body]
	if u == nil {
		return
	}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := px.localCallee(call); callee != nil && !seen[callee.node] {
				seen[callee.node] = true
				px.reachDo(callee.node, k, seen)
			}
		}
		return true
	})
}

func (px *PkgIndex) reachOf(u *unit) *reaching {
	if u.reach == nil {
		u.reach = buildReaching(px.info, u.node)
	}
	return u.reach
}

// declaringUnit finds the unit that lexically contains pos (the
// innermost one), or nil for package scope. The whole node extent is
// used, not just the body, so parameters and receivers belong to
// their function.
func (px *PkgIndex) declaringUnit(pos token.Pos) *unit {
	var best *unit
	for _, u := range px.units {
		if u.node.Pos() <= pos && pos < u.node.End() {
			if best == nil || (u.node.Pos() >= best.node.Pos() && u.node.End() <= best.node.End()) {
				best = u
			}
		}
	}
	return best
}

// vpRoot returns the innermost VP-entry unit enclosing u (possibly u
// itself), or nil when u is host code.
func (px *PkgIndex) vpRoot(u *unit) *unit {
	for w := u; w != nil; w = w.parent {
		if w.isVPEntry() {
			return w
		}
	}
	return nil
}

// localCallee resolves a call to a unit declared in this package:
// a named function/method, or a variable holding a unique literal.
func (px *PkgIndex) localCallee(call *ast.CallExpr) *unit {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := px.info.Uses[fun]
		if fn, ok := obj.(*types.Func); ok {
			if u := px.byFunc[fn]; u != nil {
				return u
			}
			if orig := fn.Origin(); orig != nil {
				return px.byFunc[orig]
			}
			return nil
		}
		if obj != nil {
			if lit := px.litBind[obj]; lit != nil {
				return px.units[lit]
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := px.info.Uses[fun.Sel].(*types.Func); ok {
			if u := px.byFunc[fn]; u != nil {
				return u
			}
			if orig := fn.Origin(); orig != nil {
				return px.byFunc[orig]
			}
		}
	case *ast.FuncLit:
		return px.units[fun]
	}
	return nil
}

// A frame binds one expansion of a unit at a call site: parameter
// objects map to the caller's argument expressions, which are evaluated
// in the parent frame with the loop context active at the call site.
type frame struct {
	unit   *unit
	parent *frame
	// args maps this unit's parameter objects to caller argument
	// expressions (nil for the root frame).
	args map[types.Object]ast.Expr
	// site is the call expression that entered this frame (nil at the
	// root); reportPos walks to the outermost site for diagnostics.
	site *ast.CallExpr
	// loops is the loop stack active at the call site, in the parent
	// frame's context.
	loops []loopRec
}

// loopRec is one loop enclosing an operation, with the frame in which
// its bound expressions are evaluated.
type loopRec struct {
	stmt ast.Node // *ast.ForStmt or *ast.RangeStmt
	fr   *frame
}

// reportPos returns the outermost call position for an op reached
// through fr — the position in the phase body the user wrote.
func (fr *frame) reportPos(fallback token.Pos) token.Pos {
	pos := fallback
	for f := fr; f != nil; f = f.parent {
		if f.site != nil {
			pos = f.site.Pos()
		}
	}
	return pos
}

// bindFrame builds the callee frame for call into callee from caller
// frame fr, or nil when arguments cannot be matched positionally.
func (px *PkgIndex) bindFrame(callee *unit, call *ast.CallExpr, fr *frame, loops []loopRec) *frame {
	nf := &frame{unit: callee, parent: fr, site: call, args: map[types.Object]ast.Expr{}, loops: append([]loopRec(nil), loops...)}
	if callee.ftype == nil || callee.ftype.Params == nil {
		return nf
	}
	args := call.Args
	// Method value receiver (x.m(...)): bind the receiver too.
	if fd, ok := callee.node.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := px.info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
				nf.args[obj] = sel.X
			}
		}
	}
	i := 0
	for _, field := range callee.ftype.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++ // unnamed parameter consumes a slot
			continue
		}
		for _, name := range names {
			if _, variadic := field.Type.(*ast.Ellipsis); variadic {
				return nf // variadic tail: leave unbound
			}
			if i >= len(args) {
				return nf
			}
			if obj := px.info.Defs[name]; obj != nil {
				nf.args[obj] = args[i]
			}
			i++
		}
	}
	return nf
}

// maxExpandDepth bounds helper expansion (one level is required by the
// rules; three covers helper-calls-helper without blowup).
const maxExpandDepth = 3

// opSite is one shared-array update reached from a phase body,
// possibly through helper expansion.
type opSite struct {
	sc    sharedCall
	fr    *frame
	loops []loopRec
	depth int
}

// walkOps walks fr.unit's body emitting every shared-array update
// reachable from it, expanding package-local calls up to maxExpandDepth
// with argument substitution. Nested function literals are entered only
// when they are phase bodies belonging to this walk's root (the caller
// walks phase lits directly, so plain literals are skipped: they are
// either separate VP bodies or escape analysis scope).
func (px *PkgIndex) walkOps(fr *frame, seen map[*unit]bool, emit func(op opSite)) {
	u := fr.unit
	if seen[u] {
		return
	}
	seen[u] = true
	defer delete(seen, u)

	var walk func(n ast.Node, loops []loopRec)
	walk = func(n ast.Node, loops []loopRec) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // separate unit; not executed inline
		case *ast.ForStmt:
			if x.Init != nil {
				walk(x.Init, loops)
			}
			if x.Cond != nil {
				walk(x.Cond, loops)
			}
			inner := append(append([]loopRec(nil), loops...), loopRec{stmt: x, fr: fr})
			if x.Post != nil {
				walk(x.Post, inner)
			}
			walk(x.Body, inner)
			return
		case *ast.RangeStmt:
			walk(x.X, loops)
			inner := append(append([]loopRec(nil), loops...), loopRec{stmt: x, fr: fr})
			walk(x.Body, inner)
			return
		case *ast.CallExpr:
			for _, a := range x.Args {
				walk(a, loops)
			}
			walk(x.Fun, loops)
			if sc, ok := asSharedCall(px.info, x); ok {
				emit(opSite{sc: sc, fr: fr, loops: loops, depth: frameDepth(fr)})
				return
			}
			if callee := px.localCallee(x); callee != nil && frameDepth(fr) < maxExpandDepth {
				nf := px.bindFrame(callee, x, fr, loops)
				px.walkOps(nf, seen, emit)
			}
			return
		}
		// Generic traversal for everything else, preserving loop context.
		children(n, func(c ast.Node) { walk(c, loops) })
	}
	walk(u.body, fr.loops)
}

func frameDepth(fr *frame) int {
	d := 0
	for f := fr; f != nil; f = f.parent {
		if f.site != nil {
			d++
		}
	}
	return d
}

// children invokes f on each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}
