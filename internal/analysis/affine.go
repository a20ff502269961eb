package analysis

// Affine index resolution: lowering shared-array index expressions to
// internal/phaserace's affine forms over its symbol vocabulary — VP
// rank, global rank, node id, ChunkRange/OwnerRange results, loop
// induction variables, vp.K() strides, and opaque values classified by
// uniformity (one value program-wide, one per node, or per VP).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	pr "ppm/internal/phaserace"
)

// resolveEnv is the context of one expression resolution: the frame (for
// parameter substitution; nil during lexical ascent), the unit whose
// reaching-definitions govern identifier lookups, and the active loops.
type resolveEnv struct {
	fr    *frame
	u     *unit
	loops []loopRec
}

func envOf(fr *frame, loops []loopRec) resolveEnv {
	return resolveEnv{fr: fr, u: fr.unit, loops: loops}
}

// loopKey identifies one loop in one frame for its Loop symbols.
type loopKey struct {
	stmt ast.Node
	fr   *frame
}

// resolver caches classification and chunk-site metadata for one
// analysis pass over one package.
type resolver struct {
	px *PkgIndex
	// class memoizes object uniformity classification.
	class map[types.Object]class
	// chunk sites are canonicalized by the (n, k) argument affines: two
	// ChunkRange calls with equal arguments compute the same partition,
	// so their lo/hi symbols must be shared for cancellation.
	chunkIDs map[string]int
	chunkN   map[any]pr.Affine // chunk id -> n affine
	// symIDs numbers symbols for canonical affine serialization.
	symIDs map[pr.Sym]int
	// loopInfo caches validated loop bounds.
	loopInfo map[loopKey]*loopBounds
}

// class is how far a value can differ between VPs; merging keeps the
// larger.
type class uint8

const (
	clsUniform class = iota // one value program-wide
	clsNodeVar              // one value per node
	clsPerVP                // may differ between VPs of one node
)

// kSym is vp.K(): the VP count of the node's Do.
var kSym = pr.Sym{Kind: pr.NodeVar, Key: "vp.K"}

func newResolver(px *PkgIndex) *resolver {
	return &resolver{
		px:       px,
		class:    map[types.Object]class{},
		chunkIDs: map[string]int{},
		chunkN:   map[any]pr.Affine{},
		symIDs:   map[pr.Sym]int{},
		loopInfo: map[loopKey]*loopBounds{},
	}
}

// canon serializes an affine into a stable string (used to canonicalize
// chunk sites by their arguments).
func (rv *resolver) canon(a pr.Affine) string {
	if !a.OK {
		return "?"
	}
	type term struct {
		id int
		c  int64
	}
	var ts []term
	for s, c := range a.T {
		id, ok := rv.symIDs[s]
		if !ok {
			id = len(rv.symIDs)
			rv.symIDs[s] = id
		}
		ts = append(ts, term{id, c})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	var b strings.Builder
	fmt.Fprintf(&b, "%d", a.C)
	for _, t := range ts {
		fmt.Fprintf(&b, "+%d*s%d", t.c, t.id)
	}
	return b.String()
}

// chunkSite interns a ChunkRange site by its canonical (n, k) arguments
// and records n for owner-anchoring checks. ok is false when the rank
// argument is not plainly vp.NodeRank(), or n/k are not VP-invariant —
// the partition property then does not relate same-node VPs.
func (rv *resolver) chunkSite(nAff, kAff, rankAff pr.Affine) (id int, ok bool) {
	rank := pr.Sym{Kind: pr.NodeRank}
	perVP := func(a pr.Affine) bool {
		return !a.OK || a.Has(pr.NodeRank, pr.GlobalRank, pr.ChunkLo, pr.ChunkHi, pr.Loop, pr.Stride)
	}
	if !rankAff.Equal(pr.Of(rank)) || perVP(nAff) || perVP(kAff) {
		return 0, false
	}
	key := rv.canon(nAff) + ";" + rv.canon(kAff)
	cid, have := rv.chunkIDs[key]
	if !have {
		cid = len(rv.chunkIDs)
		rv.chunkIDs[key] = cid
		rv.chunkN[cid] = nAff
	}
	return cid, true
}

// constVal extracts an exact integer constant from the type checker.
func (rv *resolver) constVal(e ast.Expr) (int64, bool) {
	tv, ok := rv.px.info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return 0, false
	}
	return v, true
}

// exprAffine resolves e (in env) to an affine form.
func (rv *resolver) exprAffine(e ast.Expr, env resolveEnv) pr.Affine {
	return rv.exprAffineD(e, env, 0)
}

const maxResolveDepth = 24

func (rv *resolver) exprAffineD(e ast.Expr, env resolveEnv, depth int) pr.Affine {
	if depth > maxResolveDepth {
		return pr.Affine{}
	}
	if v, ok := rv.constVal(e); ok {
		return pr.Const(v)
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return rv.exprAffineD(x.X, env, depth+1)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ADD:
			return rv.exprAffineD(x.X, env, depth+1)
		case token.SUB:
			return rv.exprAffineD(x.X, env, depth+1).Scale(-1)
		}
		return pr.Affine{}
	case *ast.BinaryExpr:
		l := rv.exprAffineD(x.X, env, depth+1)
		r := rv.exprAffineD(x.Y, env, depth+1)
		switch x.Op {
		case token.ADD:
			return l.Add(r)
		case token.SUB:
			return l.Sub(r)
		case token.MUL:
			if c, ok := l.IsConst(); ok {
				return r.Scale(c)
			}
			if c, ok := r.IsConst(); ok {
				return l.Scale(c)
			}
		}
		return rv.opaque(e, env)
	case *ast.CallExpr:
		// Conversions like int64(e) are transparent.
		if len(x.Args) == 1 {
			if tv, ok := rv.px.info.Types[x.Fun]; ok && tv.IsType() {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return rv.exprAffineD(x.Args[0], env, depth+1)
				}
			}
		}
		// A literal called in place that only returns one expression
		// (how `ppmc emit` spells my_lo(A)) is that expression.
		if lit, ok := x.Fun.(*ast.FuncLit); ok && len(x.Args) == 0 {
			if ret := onlyReturn(lit); ret != nil {
				return rv.exprAffineD(ret, resolveEnv{u: rv.px.units[lit]}, depth+1)
			}
		}
		switch {
		case isVPMethod(rv.px.info, x, "NodeRank"):
			return pr.Of(pr.Sym{Kind: pr.NodeRank})
		case isVPMethod(rv.px.info, x, "GlobalRank"):
			return pr.Of(pr.Sym{Kind: pr.GlobalRank})
		case isVPMethod(rv.px.info, x, "K"):
			return pr.Of(kSym)
		case isVPMethod(rv.px.info, x, "Node") || isRuntimeMethod(rv.px.info, x, "NodeID"):
			return pr.Of(pr.Sym{Kind: pr.NodeID})
		case isVPMethod(rv.px.info, x, "GlobalK", "Nodes", "Cores"):
			return pr.Of(pr.Sym{Kind: pr.Uniform, Key: "vp." + x.Fun.(*ast.SelectorExpr).Sel.Name})
		case isRuntimeMethod(rv.px.info, x, "NodeCount", "CoresPerNode"):
			return pr.Of(pr.Sym{Kind: pr.Uniform, Key: "rt." + x.Fun.(*ast.SelectorExpr).Sel.Name})
		}
		return rv.opaque(e, env)
	case *ast.Ident:
		return rv.identAffine(x, env, depth)
	}
	return rv.opaque(e, env)
}

// onlyReturn returns X when lit's body ends in its only return, `return X`.
func onlyReturn(lit *ast.FuncLit) ast.Expr {
	n := len(lit.Body.List)
	if n == 0 {
		return nil
	}
	ret, ok := lit.Body.List[n-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	returns := 0
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			returns++
		}
		return true
	})
	if returns != 1 {
		return nil
	}
	return ret.Results[0]
}

// identAffine resolves one identifier: parameter substitution, loop
// induction symbol, unique-definition rewriting, then classification.
func (rv *resolver) identAffine(id *ast.Ident, env resolveEnv, depth int) pr.Affine {
	info := rv.px.info
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return pr.Affine{}
	}
	// Parameter bound at a call site: resolve the caller's argument in
	// the caller's context.
	if env.fr != nil {
		if arg, ok := env.fr.args[obj]; ok && env.fr.parent != nil {
			penv := resolveEnv{fr: env.fr.parent, u: env.fr.parent.unit, loops: env.fr.loops}
			return rv.exprAffineD(arg, penv, depth+1)
		}
	}
	// Induction variable of an active loop.
	for i := len(env.loops) - 1; i >= 0; i-- {
		lr := env.loops[i]
		if rv.loopOwns(lr, obj) {
			return pr.Of(pr.Sym{Kind: pr.Loop, Key: loopKey{lr.stmt, lr.fr}})
		}
	}
	return rv.resolveObj(obj, id.Pos(), env, depth)
}

// loopsAround keeps the loops that enclose n: a definition inside a
// loop not active at the use would replay per iteration.
func loopsAround(loops []loopRec, n ast.Node) []loopRec {
	var out []loopRec
	for _, lr := range loops {
		if lr.stmt.Pos() <= n.Pos() && n.Pos() < lr.stmt.End() {
			out = append(out, lr)
		}
	}
	return out
}

// resolveObj resolves obj at pos through its reaching definitions.
func (rv *resolver) resolveObj(obj types.Object, pos token.Pos, env resolveEnv, depth int) pr.Affine {
	if depth > maxResolveDepth {
		return pr.Affine{}
	}
	r := rv.px.reachOf(env.u)
	d := r.uniqueDef(obj, pos)
	if d == nil {
		return rv.strideForm(obj, r.defsAt(obj, pos), env, depth)
	}
	if d.site == nil {
		// Entry def: a parameter without a frame binding, or a free
		// variable — ascend one lexical level.
		du := rv.px.declaringUnit(obj.Pos())
		if du == nil || du == env.u {
			return rv.classified(obj)
		}
		// Find the child of du on env.u's lexical parent chain; the
		// variable's value at env.u is its value where that literal
		// appears.
		child := env.u
		for child.parent != nil && child.parent != du {
			child = child.parent
		}
		if child.parent != du {
			return rv.classified(obj)
		}
		return rv.resolveObj(obj, child.node.Pos(), resolveEnv{u: du}, depth+1)
	}
	denv := env
	denv.loops = loopsAround(env.loops, d.site)
	rhs, lhsIdx := defRHS(rv.px.info, d)
	if rhs != nil {
		return rv.exprAffineD(rhs, denv, depth+1)
	}
	// Multi-value call: recognize ChunkRange and OwnerRange.
	if as, ok := d.site.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && lhsIdx >= 0 && lhsIdx <= 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && len(as.Lhs) == 2 {
			if isChunkRangeCall(rv.px.info, call) && len(call.Args) == 3 {
				nAff := rv.exprAffineD(call.Args[0], denv, depth+1)
				kAff := rv.exprAffineD(call.Args[1], denv, depth+1)
				rankAff := rv.exprAffineD(call.Args[2], denv, depth+1)
				cid, ok := rv.chunkSite(nAff, kAff, rankAff)
				if !ok {
					return rv.classified(obj)
				}
				kind := pr.ChunkLo
				if lhsIdx == 1 {
					kind = pr.ChunkHi
				}
				return pr.Of(pr.Sym{Kind: kind, Key: cid})
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "OwnerRange" {
				if selx := rv.px.info.Selections[sel]; selx != nil && selx.Kind() == types.MethodVal {
					if t := namedCoreType(selx.Recv()); t == "Global" || t == "Node" {
						arr := rv.arrayObj(sel.X, denv)
						if arr != nil {
							kind := pr.OwnerLo
							if lhsIdx == 1 {
								kind = pr.OwnerHi
							}
							return pr.Of(pr.Sym{Kind: kind, Key: arr})
						}
					}
				}
			}
		}
	}
	return rv.classified(obj)
}

// strideForm reads the stride loop `ppmc emit` writes for a vp_count
// stride (`var row int64 = lo + r; for row < hi { …; row = row +
// int64(vp.K()) }`) off the definitions ds that reach a use: one base,
// and every other one a step by the same positive multiple m of vp.K().
// The form is the base's plus Stride(m); anything else is classified.
func (rv *resolver) strideForm(obj types.Object, ds []*def, env resolveEnv, depth int) pr.Affine {
	var base ast.Expr
	var at ast.Node
	var mul int64
	for _, d := range ds {
		if d.addressed || d.site == nil {
			return rv.classified(obj)
		}
		if m := rv.strideStep(obj, d, env.u); m > 0 && (mul == 0 || m == mul) {
			mul = m
			continue
		}
		rhs, _ := defRHS(rv.px.info, d)
		if rhs == nil || base != nil {
			return rv.classified(obj)
		}
		base, at = rhs, d.site
	}
	if base == nil || mul == 0 {
		return rv.classified(obj)
	}
	denv := env
	denv.loops = loopsAround(env.loops, at)
	return rv.exprAffineD(base, denv, depth+1).Add(pr.Of(pr.Sym{Kind: pr.Stride, Key: obj, N: mul}))
}

// strideStep returns m when d steps obj by m·vp.K() with m > 0 (`x = x
// + m*vp.K()`, `x = m*vp.K() + x` or `x += m*vp.K()`), and 0 otherwise.
func (rv *resolver) strideStep(obj types.Object, d *def, u *unit) int64 {
	as, ok := d.site.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return 0
	}
	inc := as.Rhs[0]
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && rv.px.info.Uses[id] == obj
	}
	if as.Tok == token.ASSIGN {
		b, ok := ast.Unparen(inc).(*ast.BinaryExpr)
		switch {
		case !ok || b.Op != token.ADD:
			return 0
		case isObj(b.X):
			inc = b.Y
		case isObj(b.Y):
			inc = b.X
		default:
			return 0
		}
	} else if as.Tok != token.ADD_ASSIGN {
		return 0
	}
	a := rv.exprAffine(inc, resolveEnv{u: u})
	if !a.OK || a.C != 0 || len(a.T) != 1 {
		return 0
	}
	return a.Coef(kSym)
}

// isChunkRangeCall recognizes core.ChunkRange / ppm.ChunkRange.
func isChunkRangeCall(info *types.Info, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "ChunkRange" || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == corePath || p == "ppm"
}

// arrayObj resolves the root object a shared-array receiver expression
// denotes, substituting frame parameters and unique definitions (so a
// helper's `sh` parameter resolves to the caller's array variable, and
// `g := tables[l]` resolves to `tables`).
func (rv *resolver) arrayObj(e ast.Expr, env resolveEnv) types.Object {
	return rv.arrayObjD(e, env, 0)
}

func (rv *resolver) arrayObjD(e ast.Expr, env resolveEnv, depth int) types.Object {
	if depth > maxResolveDepth {
		return nil
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return rv.arrayObjD(x.X, env, depth+1)
	case *ast.IndexExpr:
		return rv.arrayObjD(x.X, env, depth+1)
	case *ast.SelectorExpr:
		return rv.arrayObjD(x.X, env, depth+1)
	case *ast.StarExpr:
		return rv.arrayObjD(x.X, env, depth+1)
	case *ast.Ident:
		obj := rv.px.info.Uses[x]
		if obj == nil {
			obj = rv.px.info.Defs[x]
		}
		if obj == nil {
			return nil
		}
		if env.fr != nil {
			if arg, ok := env.fr.args[obj]; ok && env.fr.parent != nil {
				penv := resolveEnv{fr: env.fr.parent, u: env.fr.parent.unit, loops: env.fr.loops}
				return rv.arrayObjD(arg, penv, depth+1)
			}
		}
		// Follow a unique alias definition when it resolves to another
		// identifier-rooted expression (g := tables[l]); otherwise the
		// variable itself is the array's identity.
		if env.u != nil {
			r := rv.px.reachOf(env.u)
			if d := r.uniqueDef(obj, x.Pos()); d != nil && d.site != nil {
				if rhs, _ := defRHS(rv.px.info, d); rhs != nil {
					if root := rv.arrayObjD(rhs, env, depth+1); root != nil {
						return root
					}
				}
			}
		}
		return obj
	}
	return nil
}

// loopOwns reports whether lr's loop declares obj as its induction
// variable (for-init define, or range key).
func (rv *resolver) loopOwns(lr loopRec, obj types.Object) bool {
	switch st := lr.stmt.(type) {
	case *ast.ForStmt:
		init, ok := st.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
			return false
		}
		id, ok := init.Lhs[0].(*ast.Ident)
		return ok && rv.px.info.Defs[id] == obj
	case *ast.RangeStmt:
		if id, ok := st.Key.(*ast.Ident); ok && st.Tok == token.DEFINE && rv.px.info.Defs[id] == obj {
			return true
		}
	}
	return false
}

// rangeValueOwner returns the loop whose range VALUE variable is obj.
func rangeValueOwner(info *types.Info, loops []loopRec, obj types.Object) (loopRec, bool) {
	for i := len(loops) - 1; i >= 0; i-- {
		if st, ok := loops[i].stmt.(*ast.RangeStmt); ok && st.Tok == token.DEFINE {
			if id, ok := st.Value.(*ast.Ident); ok && info.Defs[id] == obj {
				return loops[i], true
			}
		}
	}
	return loopRec{}, false
}

// loopBounds is a validated stride-1 loop: the induction variable runs
// over [lo, hi) and is not otherwise assigned in the body.
type loopBounds struct {
	ok     bool
	lo, hi pr.Affine
}

// bounds validates lr as a simple counted loop (i := A; i < B; i++, or
// a range over a slice for the key variable) and resolves its bounds in
// the loop's own context. prefix is the loop stack outside lr.
func (rv *resolver) bounds(lr loopRec, prefix []loopRec) *loopBounds {
	key := loopKey{lr.stmt, lr.fr}
	if b, ok := rv.loopInfo[key]; ok {
		return b
	}
	b := &loopBounds{}
	rv.loopInfo[key] = b
	env := resolveEnv{fr: lr.fr, u: lr.fr.unit, loops: prefix}
	switch st := lr.stmt.(type) {
	case *ast.ForStmt:
		init, ok := st.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return b
		}
		id, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return b
		}
		obj := rv.px.info.Defs[id]
		cond, ok := st.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
			return b
		}
		cid, ok := cond.X.(*ast.Ident)
		if !ok || rv.px.info.Uses[cid] != obj {
			return b
		}
		// Post must be i++ (or i += 1).
		switch post := st.Post.(type) {
		case *ast.IncDecStmt:
			pid, ok := post.X.(*ast.Ident)
			if !ok || post.Tok != token.INC || rv.px.info.Uses[pid] != obj {
				return b
			}
		case *ast.AssignStmt:
			if post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 || len(post.Rhs) != 1 {
				return b
			}
			pid, ok := post.Lhs[0].(*ast.Ident)
			if !ok || rv.px.info.Uses[pid] != obj {
				return b
			}
			if v, ok := rv.constVal(post.Rhs[0]); !ok || v != 1 {
				return b
			}
		default:
			return b
		}
		if loopReassigns(rv.px.info, st.Body, obj) {
			return b
		}
		lo := rv.exprAffine(init.Rhs[0], env)
		hi := rv.exprAffine(cond.Y, env)
		if cond.Op == token.LEQ {
			hi = hi.Add(pr.Const(1))
		}
		if !lo.OK || !hi.OK {
			return b
		}
		b.ok, b.lo, b.hi = true, lo, hi
		return b
	case *ast.RangeStmt:
		// Key variable over a slice: [0, len(X)). len(X) is modeled as
		// an opaque symbol keyed by the range statement, classified by
		// the range expression's uniformity.
		if loopReassignsKey(rv.px.info, st) {
			return b
		}
		cls := rv.classifyExpr(st.X, env)
		if cls == clsPerVP {
			return b
		}
		kind := pr.Uniform
		if cls == clsNodeVar {
			kind = pr.NodeVar
		}
		b.ok = true
		b.lo = pr.Const(0)
		b.hi = pr.Of(pr.Sym{Kind: kind, Key: key})
		return b
	}
	return b
}

// loopReassigns reports whether body assigns, increments, or takes the
// address of obj.
func loopReassigns(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	bad := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
					bad = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := x.X.(*ast.Ident); ok && info.Uses[id] == obj {
				bad = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := x.X.(*ast.Ident); ok && info.Uses[id] == obj {
					bad = true
				}
			}
		}
		return !bad
	})
	return bad
}

func loopReassignsKey(info *types.Info, st *ast.RangeStmt) bool {
	id, ok := st.Key.(*ast.Ident)
	if !ok || st.Tok != token.DEFINE {
		return false
	}
	obj := info.Defs[id]
	return obj != nil && loopReassigns(info, st.Body, obj)
}

// opaque builds a symbol for an expression the affine grammar cannot
// decompose, classified by uniformity; per-VP opaque values poison the
// form.
func (rv *resolver) opaque(e ast.Expr, env resolveEnv) pr.Affine {
	return classSym(rv.classifyExpr(e, env), ast.Node(e))
}

// classified resolves obj to its uniformity symbol.
func (rv *resolver) classified(obj types.Object) pr.Affine {
	return classSym(rv.classifyObj(obj, 0), obj)
}

func classSym(c class, key any) pr.Affine {
	switch c {
	case clsPerVP:
		return pr.Affine{}
	case clsNodeVar:
		return pr.Of(pr.Sym{Kind: pr.NodeVar, Key: key})
	}
	return pr.Of(pr.Sym{Kind: pr.Uniform, Key: key})
}

// classifyExpr classifies an expression's uniformity: clsPerVP if it
// can differ between VPs of one node, clsNodeVar if only between nodes,
// clsUniform otherwise.
func (rv *resolver) classifyExpr(e ast.Expr, env resolveEnv) class {
	cls := clsUniform
	ast.Inspect(e, func(n ast.Node) bool {
		if cls == clsPerVP {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isVPMethod(rv.px.info, x, "NodeRank", "GlobalRank") {
				cls = clsPerVP
				return false
			}
			if isVPMethod(rv.px.info, x, "K") || isRuntimeMethod(rv.px.info, x, "NodeID") {
				cls = max(cls, clsNodeVar)
				return false
			}
		case *ast.Ident:
			obj := rv.px.info.Uses[x]
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				// Loop variables active in env are per-VP iteration state.
				for _, lr := range env.loops {
					if rv.loopOwns(lr, obj) {
						cls = clsPerVP
						return true
					}
				}
				cls = max(cls, rv.classifyObj(obj, 0))
			}
		}
		return true
	})
	return cls
}

// classifyObj classifies a variable's uniformity from where it is
// declared and what its definitions mention.
func (rv *resolver) classifyObj(obj types.Object, depth int) class {
	if c, ok := rv.class[obj]; ok {
		return c
	}
	if depth > 8 {
		return clsNodeVar // conservative middle class
	}
	// Guard against recursion through cyclic definitions.
	rv.class[obj] = clsNodeVar

	cls := clsUniform
	du := rv.px.declaringUnit(obj.Pos())
	if du != nil && rv.px.vpRoot(du) != nil {
		cls = clsPerVP
	} else if du != nil {
		// Scan the declaring unit's definitions of obj for node- or
		// VP-dependent ingredients.
		scanRHS := func(e ast.Expr) {
			ast.Inspect(e, func(n ast.Node) bool {
				if cls == clsPerVP {
					return false
				}
				switch x := n.(type) {
				case *ast.CallExpr:
					if isVPMethod(rv.px.info, x, "NodeRank", "GlobalRank") {
						cls = clsPerVP
						return false
					}
					if isVPMethod(rv.px.info, x, "K") || isRuntimeMethod(rv.px.info, x, "NodeID") {
						cls = max(cls, clsNodeVar)
						return false
					}
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "OwnerRange" {
						cls = max(cls, clsNodeVar)
						return false
					}
					// AllReduce results are uniform across nodes.
					if isRuntimeMethod(rv.px.info, x, "AllReduce", "AllReduceInt") {
						return false
					}
				case *ast.Ident:
					o := rv.px.info.Uses[x]
					if v, ok := o.(*types.Var); ok && !v.IsField() && o != obj {
						cls = max(cls, rv.classifyObj(o, depth+1))
					}
				}
				return true
			})
		}
		ast.Inspect(du.body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					o := rv.px.info.Defs[id]
					if o == nil {
						o = rv.px.info.Uses[id]
					}
					if o != obj {
						continue
					}
					if len(x.Rhs) == len(x.Lhs) {
						scanRHS(x.Rhs[i])
					} else if len(x.Rhs) == 1 {
						scanRHS(x.Rhs[0])
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if rv.px.info.Defs[name] == obj && i < len(x.Values) {
						scanRHS(x.Values[i])
					}
				}
			case *ast.RangeStmt:
				for _, v := range []ast.Expr{x.Key, x.Value} {
					if id, ok := v.(*ast.Ident); ok && rv.px.info.Defs[id] == obj {
						scanRHS(x.X)
					}
				}
			}
			return true
		})
	}
	rv.class[obj] = cls
	return cls
}
