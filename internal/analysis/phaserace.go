package analysis

// phaserace: the static race detector the phase semantics make possible.
// Under the model, reads observe the begin-of-phase state and writes
// commit at the end-of-phase barrier, so the only data race is two VP
// instances writing (or one writing and one Add-ing) the same element of
// the same shared array within one phase. internal/phaserace decides
// that from the write sites of each phase; this file lowers them from
// Go. Index expressions resolve to affine forms (affine.go) through
// helper calls (callgraph.go); a write's set in each dimension is a
// point, the interval a counted loop sweeps, the chunk window of an
// injective slice, or a block at a uniform start. The verdicts:
//
//   - provably disjoint write sets: silent;
//   - provably intersecting: a definite "phaserace" diagnostic;
//   - non-affine or undecidable: a "phaserace.possible" diagnostic
//     (separately suppressible).
//
// Guards decide how many VPs reach a write. GlobalRank() == c admits one
// writer in the cluster; NodeRank() == c, and a Do(1, ...) that starts
// the phase directly or through a helper, admit one writer per node.
// Any other rank-dependent guard, and any loop whose trip count depends
// on rank, exempts nothing but makes an overlap only possible.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	pr "ppm/internal/phaserace"
)

// PhaseRaceAnalyzer reports phase write-set overlaps between VPs.
var PhaseRaceAnalyzer = &Analyzer{
	Name: "phaserace",
	Doc: "report phase writes where two VP instances can touch the same element: " +
		"write/write and write/add overlaps are races the end-of-phase commit cannot order; " +
		"undecidable index expressions are reported under phaserace.possible",
	Run: runPhaseRace,
}

func runPhaseRace(pass *Pass) error {
	px := pass.Index()
	rv := newResolver(px)
	tainted := map[types.Object]bool{}
	for _, f := range pass.Files {
		for obj := range taintedVars(pass.TypesInfo, f) {
			tainted[obj] = true
		}
	}

	for lit, isPhase := range px.ctx.phaseLits {
		if !isPhase {
			continue
		}
		u := px.units[lit]
		if u == nil {
			continue
		}
		sites, pos := collectWrites(px, rv, u, tainted)
		root := px.vpRoot(u)
		single := root != nil && vpEntrySingleVP(px, root)
		for _, f := range pr.Check(pr.Phase{Sites: sites, SingleVP: single, ChunkN: rv.chunkN}) {
			arr, _ := sites[f.I].Array.(types.Object)
			other := ""
			if pos[f.I] != pos[f.J] {
				other = fmt.Sprintf(" (with the write at line %d)", pass.Fset.Position(pos[f.J]).Line)
			}
			switch {
			case arr == nil:
				pass.reportTagged(pos[f.I], "phaserace.possible", "cannot prove VP write sets disjoint: %s", f.Why)
			case f.Verdict == pr.Race:
				pass.reportTagged(pos[f.I], "phaserace",
					"VP instances of this phase write overlapping elements of %s%s: "+
						"the end-of-phase commit cannot order them — make the index sets disjoint or use Add",
					arr.Name(), other)
			default:
				pass.reportTagged(pos[f.I], "phaserace.possible",
					"cannot prove VP write sets of %s disjoint%s: %s", arr.Name(), other, f.Why)
			}
		}
	}
	return nil
}

// rankGuards reads the rank-dependent if-conditions enclosing op in
// every frame of its helper expansion (the write runs where all hold):
// the then-branch of a one-writer condition bounds its VPs, any other
// branch of a rank-dependent condition makes the set partial.
func rankGuards(rv *resolver, op opSite, tainted map[types.Object]bool) (one pr.Guard, partial bool) {
	node := ast.Node(op.sc.call)
	for f := op.fr; f != nil; f = f.parent {
		inspectStack(f.unit.body, func(n ast.Node, stack []ast.Node) {
			if n != node {
				return
			}
			for i, anc := range stack[:len(stack)-1] {
				ifs, ok := anc.(*ast.IfStmt)
				if !ok || !rankDependent(rv.px.info, ifs.Cond, tainted) {
					continue
				}
				k := pr.Everyone
				if b, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr); ok && b.Op == token.EQL && stack[i+1] == ast.Node(ifs.Body) {
					env := envOf(f, nil)
					k = pr.GuardOf(rv.exprAffine(b.X, env).Sub(rv.exprAffine(b.Y, env)))
				}
				one, partial = max(one, k), partial || k == pr.Everyone
			}
		})
		node = f.site
	}
	return one, partial
}

// tripDep reports whether the trip count of loop lr depends on rank: a
// counted loop whose hi - lo is not rank-free, or any other loop whose
// condition or range expression mentions a rank. prefix is the loop
// stack outside lr.
func tripDep(rv *resolver, lr loopRec, prefix []loopRec, tainted map[types.Object]bool) bool {
	if b := rv.bounds(lr, prefix); b.ok {
		return !b.hi.Sub(b.lo).RankFree()
	}
	switch st := lr.stmt.(type) {
	case *ast.ForStmt:
		return st.Cond != nil && rankDependent(rv.px.info, st.Cond, tainted)
	case *ast.RangeStmt:
		return rankDependent(rv.px.info, st.X, tainted)
	}
	return false
}

// collectWrites expands the phase body and lowers each write op to a
// site, returning the position to report each at.
func collectWrites(px *PkgIndex, rv *resolver, phase *unit, tainted map[types.Object]bool) ([]pr.Site, []token.Pos) {
	var sites []pr.Site
	var pos []token.Pos
	root := &frame{unit: phase}
	px.walkOps(root, map[*unit]bool{}, func(op opSite) {
		env := envOf(op.fr, op.loops)
		w := pr.Site{Global: op.sc.typ != "Node", Add: op.sc.add}
		w.One, w.Partial = rankGuards(rv, op, tainted)
		pos = append(pos, op.fr.reportPos(op.sc.call.Pos()))
		arr := rv.arrayObj(op.sc.recv, env)
		if arr == nil {
			sites = append(sites, w)
			return
		}
		w.Array = arr
		swept := map[ast.Node]bool{}
		if op.sc.block {
			w.Dims = []pr.Set{resolveBlockForm(px, rv, op, env)}
		} else {
			w.Dims = make([]pr.Set, len(op.sc.indices))
			for i, idx := range op.sc.indices {
				var lr ast.Node
				w.Dims[i], lr = resolveIndexForm(px, rv, idx, op, env)
				swept[lr] = true
			}
		}
		for _, d := range w.Dims {
			if d.Form == pr.Unknown && w.Why == "" {
				w.Why = "index expression is not affine in VP rank and loop variables"
			}
		}
		// A loop whose trip count depends on rank decides how often the
		// write runs, unless the write's set is what that loop sweeps.
		for i, lr := range op.loops {
			w.Partial = w.Partial || !swept[lr.stmt] && tripDep(rv, lr, op.loops[:i], tainted)
		}
		sites = append(sites, w)
	})
	return sites, pos
}

// resolveIndexForm turns one scalar index expression into a write set:
// a point, or — when it sweeps an enclosing validated stride-1 loop (the
// innermost such) with coefficient 1 — the interval that loop covers,
// or a chunk-window range-over-elements form. It also returns the loop
// the set sweeps.
func resolveIndexForm(px *PkgIndex, rv *resolver, idx ast.Expr, op opSite, env resolveEnv) (pr.Set, ast.Node) {
	if a := rv.exprAffine(idx, env); a.OK {
		for i := len(op.loops) - 1; i >= 0; i-- {
			lr := op.loops[i]
			s := pr.Sym{Kind: pr.Loop, Key: loopKey{lr.stmt, lr.fr}}
			if a.Coef(s) != 1 {
				continue
			}
			if b := rv.bounds(lr, op.loops[:i]); b.ok {
				rest := a.Without(s)
				return pr.Set{Form: pr.Interval, Lo: rest.Add(b.lo), Hi: rest.Add(b.hi)}, lr.stmt
			}
			return pr.Set{Form: pr.Unknown}, nil
		}
		return pr.Set{Form: pr.Point, At: a}, nil
	}
	// Not affine: the range-over-chunk-window idiom
	// (for _, s := range elems[vlo:vhi] { A.Write(vp, s, ...) }).
	if id, ok := idx.(*ast.Ident); ok {
		obj := px.info.Uses[id]
		if lr, ok := rangeValueOwner(px.info, op.loops, obj); ok {
			if d := chunkElemsForm(px, rv, lr, op); d.Form == pr.ChunkElems {
				return d, lr.stmt
			}
		}
	}
	return pr.Set{Form: pr.Unknown}, nil
}

// chunkElemsForm recognizes ranging over elems[vlo:vhi] where vlo/vhi
// are one chunk site's bounds and elems is a strictly-increasing int
// slice (appended at most once per iteration from an enclosing range
// key), making the element sets of distinct chunks disjoint.
func chunkElemsForm(px *PkgIndex, rv *resolver, lr loopRec, op opSite) pr.Set {
	unknown := pr.Set{Form: pr.Unknown}
	st := lr.stmt.(*ast.RangeStmt)
	sl, ok := st.X.(*ast.SliceExpr)
	if !ok || sl.Low == nil || sl.High == nil || sl.Slice3 {
		return unknown
	}
	base, ok := sl.X.(*ast.Ident)
	if !ok {
		return unknown
	}
	obj := px.info.Uses[base]
	if obj == nil || !injectiveIntSlice(px, obj) {
		return unknown
	}
	lenv := resolveEnv{fr: lr.fr, u: lr.fr.unit, loops: op.loops}
	lo := rv.exprAffine(sl.Low, lenv)
	hi := rv.exprAffine(sl.High, lenv)
	// The window must be exactly one chunk site's [ChunkLo, ChunkHi).
	for s := range lo.T {
		if len(lo.T) == 1 && lo.Equal(pr.Of(s)) && s.Kind == pr.ChunkLo && hi.Equal(pr.Of(pr.Sym{Kind: pr.ChunkHi, Key: s.Key})) {
			return pr.Set{Form: pr.ChunkElems, Elems: obj, Lo: lo, Hi: hi}
		}
	}
	return unknown
}

// injectiveIntSlice reports whether every assignment to obj is either an
// empty declaration (`var obj []int`, or `obj := make([]int, 0, n)` with a
// literal zero length) or the single statement `obj = append(obj, k)` with
// k the key variable of the enclosing range loop — making obj's values
// strictly increasing, hence injective.
func injectiveIntSlice(px *PkgIndex, obj types.Object) bool {
	du := px.declaringUnit(obj.Pos())
	if du == nil {
		return false
	}
	appends := 0
	okSoFar := true
	ast.Inspect(du.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !okSoFar {
			return okSoFar
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			o := px.info.Defs[id]
			if o == nil {
				o = px.info.Uses[id]
			}
			if o != obj {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			call, isCall := rhs.(*ast.CallExpr)
			if !isCall {
				okSoFar = false
				return false
			}
			fid, isIdent := call.Fun.(*ast.Ident)
			if isIdent && fid.Name == "make" && len(call.Args) >= 2 {
				if l, ok := call.Args[1].(*ast.BasicLit); ok && l.Value == "0" {
					continue // empty, however much room it reserves
				}
			}
			if !isIdent || fid.Name != "append" || len(call.Args) != 2 {
				okSoFar = false
				return false
			}
			if aid, ok := call.Args[0].(*ast.Ident); !ok || px.info.Uses[aid] != obj {
				okSoFar = false
				return false
			}
			// Appended value must be the key of an enclosing range.
			vid, ok := call.Args[1].(*ast.Ident)
			if !ok {
				okSoFar = false
				return false
			}
			vobj := px.info.Uses[vid]
			if vobj == nil || !isEnclosingRangeKey(px, du, as, vobj) {
				okSoFar = false
				return false
			}
			appends++
		}
		return true
	})
	return okSoFar && appends == 1
}

// isEnclosingRangeKey reports whether obj is the key variable of a
// range statement lexically enclosing site within u.
func isEnclosingRangeKey(px *PkgIndex, u *unit, site ast.Node, obj types.Object) bool {
	found := false
	inspectStack(u.body, func(n ast.Node, stack []ast.Node) {
		if n != site || found {
			return
		}
		for _, anc := range stack {
			if rs, ok := anc.(*ast.RangeStmt); ok && rs.Tok == token.DEFINE {
				if id, ok := rs.Key.(*ast.Ident); ok && px.info.Defs[id] == obj {
					found = true
				}
			}
		}
	})
	return found
}

// resolveBlockForm turns a WriteBlock/AddBlock into an interval
// [lo, lo+len(src)), resolving the source slice's length through
// slicing expressions and make-sized definitions.
func resolveBlockForm(px *PkgIndex, rv *resolver, op opSite, env resolveEnv) pr.Set {
	lo := rv.exprAffine(op.sc.indices[0], env)
	n := sliceLenAffine(px, rv, op.sc.call.Args[2], env, 0)
	switch {
	case lo.OK && n.OK:
		return pr.Set{Form: pr.Interval, Lo: lo, Hi: lo.Add(n)}
	case lo.Only(pr.Uniform):
		return pr.Set{Form: pr.BlockAt, At: lo}
	}
	return pr.Set{Form: pr.Unknown}
}

// sliceLenAffine resolves the length of a slice expression: x[a:b] has
// length b-a, make([]T, n) has length n, and an identifier follows its
// unique definition.
func sliceLenAffine(px *PkgIndex, rv *resolver, e ast.Expr, env resolveEnv, depth int) pr.Affine {
	if depth > maxResolveDepth {
		return pr.Affine{}
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return sliceLenAffine(px, rv, x.X, env, depth+1)
	case *ast.SliceExpr:
		if x.Slice3 {
			return pr.Affine{}
		}
		lo := pr.Const(0)
		if x.Low != nil {
			lo = rv.exprAffine(x.Low, env)
		}
		if x.High == nil {
			return pr.Affine{}
		}
		return rv.exprAffine(x.High, env).Sub(lo)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 2 {
			return rv.exprAffine(x.Args[1], env)
		}
	case *ast.Ident:
		obj := px.info.Uses[x]
		if obj == nil {
			return pr.Affine{}
		}
		if env.fr != nil {
			if arg, ok := env.fr.args[obj]; ok && env.fr.parent != nil {
				penv := resolveEnv{fr: env.fr.parent, u: env.fr.parent.unit, loops: env.fr.loops}
				return sliceLenAffine(px, rv, arg, penv, depth+1)
			}
		}
		r := px.reachOf(env.u)
		d := r.uniqueDef(obj, x.Pos())
		if d == nil || d.site == nil {
			return pr.Affine{}
		}
		if rhs, _ := defRHS(px.info, d); rhs != nil {
			denv := env
			denv.loops = loopsAround(env.loops, d.site)
			return sliceLenAffine(px, rv, rhs, denv, depth+1)
		}
	}
	return pr.Affine{}
}

// vpEntrySingleVP reports whether every Do site reaching this unit uses
// a constant K of 1.
func vpEntrySingleVP(px *PkgIndex, u *unit) bool {
	ks := px.doK[u.node]
	for _, k := range ks {
		if tv := px.info.Types[k]; tv.Value == nil || constant.Compare(tv.Value, token.NEQ, constant.MakeInt64(1)) {
			return false
		}
	}
	return len(ks) > 0
}
