package analysis

// phaserace: the static race detector the phase semantics make possible.
// Under the model, reads observe the begin-of-phase state and writes
// commit at the end-of-phase barrier, so the only data race is two VP
// instances writing (or one writing and one Add-ing) the same element of
// the same shared array within one phase. That is a property of the
// index expressions alone, which this rule resolves to affine forms
// (affine.go) through helper calls (callgraph.go) and compares pairwise:
//
//   - provably disjoint write sets: silent;
//   - provably intersecting: a definite "phaserace" diagnostic;
//   - non-affine or undecidable: a "phaserace.possible" diagnostic
//     (separately suppressible).
//
// Disjointness arguments used, for VP ranks r1 != r2:
//
//   same node: ChunkRange(n, k, rank) intervals partition [0, n), so two
//   ops whose interval is rest + [chunkLo, chunkHi) over the same (n, k)
//   site are disjoint when the rests agree; a constant rest offset (halo
//   writes) makes adjacent chunks collide. Point indices rest + a*rank
//   are disjoint exactly when a != 0 (ranks are distinct).
//
//   across nodes (Global arrays): intervals anchored in an owner range —
//   rest + ownerLo + [chunkLo, chunkHi) with the site's n equal to
//   ownerHi - ownerLo and rest uniform — stay inside their node's owner
//   partition, which is disjoint across nodes. GlobalRank-indexed points
//   are disjoint everywhere; NodeRank-indexed points collide across
//   nodes (equal ranks exist on every node).
//
// Add-vs-Add pairs never conflict (combining semantics); Write-vs-Write
// and Write-vs-Add do.
//
// Guards decide how many VPs reach a write, and this rule is the only
// one that decides it. GlobalRank() == c admits one writer in the
// cluster. NodeRank() == c, and a Do(1, ...) that starts the phase
// directly or through a helper, admit one writer per node: no race on a
// Node array, still a race on a Global array at an index every node
// shares. Any other rank-dependent guard exempts nothing, but an overlap
// it would have proven becomes phaserace.possible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PhaseRaceAnalyzer reports phase write-set overlaps between VPs.
var PhaseRaceAnalyzer = &Analyzer{
	Name: "phaserace",
	Doc: "report phase writes where two VP instances can touch the same element: " +
		"write/write and write/add overlaps are races the end-of-phase commit cannot order; " +
		"undecidable index expressions are reported under phaserace.possible",
	Run: runPhaseRace,
}

type verdict int

const (
	vDisjoint verdict = iota
	vOverlap
	vUnknown
)

type wform int

const (
	formPoint wform = iota
	formInterval
	formChunkElems
	formBlockAt // block of unresolved length at a uniform start idx
	formUnknown
)

// dimForm is the resolved write set of one op in one dimension.
type dimForm struct {
	form   wform
	idx    affine // formPoint
	lo, hi affine // formInterval: [lo, hi)
	// formChunkElems: values of slice elems[lo:hi] with elems strictly
	// increasing and [lo, hi) a chunk window.
	elems   types.Object
	chunkID int
}

// writeOp is one write-family accessor reached from the phase body.
type writeOp struct {
	arr    types.Object
	typ    string // Global, Node, Global2D
	add    bool
	dims   []dimForm
	pos    token.Pos // position to report (outermost call site)
	why    string    // non-affine reason for possible diagnostics
	helper bool      // reached through helper expansion
	// one bounds the VPs that run the write; partial is set when another
	// rank-dependent condition also decides which VPs those are.
	one     guardKind
	partial bool
}

// guardKind is how many VPs a one-writer condition admits.
type guardKind int

const (
	gNone    guardKind = iota // every VP
	gNode                     // one per node: NodeRank() == c
	gCluster                  // one in the cluster: GlobalRank() == c
)

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
		u := px.unitFor(lit)
		if u == nil {
			continue
		}
		ops := collectWrites(px, rv, u, tainted)
		checkPhaseRaces(pass, rv, u, ops)
	}
	return nil
}

// rankGuards reads the rank-dependent if-conditions enclosing op in
// every frame of its helper expansion (the write runs where all hold):
// the then-branch of a one-writer condition bounds its VPs, any other
// branch of a rank-dependent condition makes the set partial.
func rankGuards(rv *resolver, op opSite, tainted map[types.Object]bool) (one guardKind, partial bool) {
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
				k := gNone
				if stack[i+1] == ast.Node(ifs.Body) {
					k = oneWriter(rv, ifs.Cond, envOf(f, nil))
				}
				one, partial = max(one, k), partial || k == gNone
			}
		})
		node = f.site
	}
	return one, partial
}

// oneWriter classifies a condition r == c, for one rank symbol r and a
// uniform c: it holds in one VP (GlobalRank) or one VP per node
// (NodeRank). Any other condition bounds nothing.
func oneWriter(rv *resolver, cond ast.Expr, env resolveEnv) guardKind {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return gNone
	}
	g := gNone
	for s := range rv.exprAffine(b.X, env).sub(rv.exprAffine(b.Y, env)).t {
		switch {
		case s.kind == kUniform:
		case g == gNone && s.kind == kGlobalRank:
			g = gCluster
		case g == gNone && s.kind == kNodeRank:
			g = gNode
		default:
			return gNone
		}
	}
	return g
}

// collectWrites expands the phase body and resolves each write op.
func collectWrites(px *PkgIndex, rv *resolver, phase *unit, tainted map[types.Object]bool) []writeOp {
	var ops []writeOp
	root := &frame{unit: phase}
	px.walkOps(root, map[*unit]bool{}, func(op opSite) {
		if !op.sc.write {
			return
		}
		env := envOf(op.fr, op.loops)
		w := writeOp{
			typ:    op.sc.typ,
			add:    op.sc.add,
			pos:    op.fr.reportPos(op.sc.call.Pos()),
			helper: op.depth > 0,
		}
		w.one, w.partial = rankGuards(rv, op, tainted)
		w.arr = rv.arrayObj(op.sc.recv, env)
		if w.arr == nil {
			w.why = "cannot identify the target array"
			w.dims = []dimForm{{form: formUnknown}}
			ops = append(ops, w)
			return
		}
		if op.sc.block {
			w.dims = []dimForm{resolveBlockForm(px, rv, op, env)}
		} else {
			w.dims = make([]dimForm, len(op.sc.indices))
			for i, idx := range op.sc.indices {
				w.dims[i] = resolveIndexForm(px, rv, idx, op, env)
			}
		}
		for _, d := range w.dims {
			if d.form == formUnknown && w.why == "" {
				w.why = "index expression is not affine in VP rank and loop variables"
			}
		}
		ops = append(ops, w)
	})
	return ops
}

// resolveIndexForm turns one scalar index expression into a dim form:
// a point, or — when the affine mentions a single validated stride-1
// loop with coefficient 1 — the loop-swept interval, or a chunk-window
// range-over-elements form.
func resolveIndexForm(px *PkgIndex, rv *resolver, idx ast.Expr, op opSite, env resolveEnv) dimForm {
	a := rv.exprAffine(idx, env)
	if a.ok {
		var loopSyms []sym
		for s := range a.t {
			if s.kind == kLoop {
				loopSyms = append(loopSyms, s)
			}
		}
		switch len(loopSyms) {
		case 0:
			return dimForm{form: formPoint, idx: a}
		case 1:
			s := loopSyms[0]
			if a.t[s] != 1 {
				return dimForm{form: formUnknown}
			}
			lk := s.key.(loopKey)
			var lr loopRec
			var prefix []loopRec
			for i, cand := range op.loops {
				if cand.stmt == lk.stmt && cand.fr == lk.fr {
					lr = cand
					prefix = op.loops[:i]
					break
				}
			}
			if lr.stmt == nil {
				return dimForm{form: formUnknown}
			}
			b := rv.bounds(lr, prefix)
			if !b.ok {
				return dimForm{form: formUnknown}
			}
			rest := a.clone()
			delete(rest.t, s)
			return dimForm{form: formInterval, lo: rest.add(b.lo), hi: rest.add(b.hi)}
		default:
			return dimForm{form: formUnknown}
		}
	}
	// Not affine: the range-over-chunk-window idiom
	// (for _, s := range elems[vlo:vhi] { A.Write(vp, s, ...) }).
	if id, ok := idx.(*ast.Ident); ok {
		obj := px.info.Uses[id]
		if lr, ok := rangeValueOwner(px.info, op.loops, obj); ok {
			if d := chunkElemsForm(px, rv, lr, op, env); d.form == formChunkElems {
				return d
			}
		}
	}
	return dimForm{form: formUnknown}
}

// chunkElemsForm recognizes ranging over elems[vlo:vhi] where vlo/vhi
// are one chunk site's bounds and elems is a strictly-increasing int
// slice (appended at most once per iteration from an enclosing range
// key), making the element sets of distinct chunks disjoint.
func chunkElemsForm(px *PkgIndex, rv *resolver, lr loopRec, op opSite, env resolveEnv) dimForm {
	st := lr.stmt.(*ast.RangeStmt)
	sl, ok := st.X.(*ast.SliceExpr)
	if !ok || sl.Low == nil || sl.High == nil || sl.Slice3 {
		return dimForm{form: formUnknown}
	}
	base, ok := sl.X.(*ast.Ident)
	if !ok {
		return dimForm{form: formUnknown}
	}
	obj := px.info.Uses[base]
	if obj == nil || !injectiveIntSlice(px, obj) {
		return dimForm{form: formUnknown}
	}
	lenv := resolveEnv{fr: lr.fr, u: lr.fr.unit, loops: op.loops}
	loAff := rv.exprAffine(sl.Low, lenv)
	hiAff := rv.exprAffine(sl.High, lenv)
	cid, ok := singleChunkPair(loAff, hiAff)
	if !ok {
		return dimForm{form: formUnknown}
	}
	return dimForm{form: formChunkElems, elems: obj, chunkID: cid, lo: loAff, hi: hiAff}
}

// singleChunkPair checks lo == chunkLo(s) and hi == chunkHi(s) for one
// shared chunk site s (no other terms), returning the site.
func singleChunkPair(lo, hi affine) (int, bool) {
	if !lo.ok || !hi.ok || lo.c != 0 || hi.c != 0 || len(lo.t) != 1 || len(hi.t) != 1 {
		return 0, false
	}
	var loID, hiID int = -1, -2
	for s, c := range lo.t {
		if s.kind == kChunkLo && c == 1 {
			loID = s.key.(int)
		}
	}
	for s, c := range hi.t {
		if s.kind == kChunkHi && c == 1 {
			hiID = s.key.(int)
		}
	}
	if loID >= 0 && loID == hiID {
		return loID, true
	}
	return 0, false
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
func resolveBlockForm(px *PkgIndex, rv *resolver, op opSite, env resolveEnv) dimForm {
	lo := rv.exprAffine(op.sc.indices[0], env)
	if !lo.ok {
		return dimForm{form: formUnknown}
	}
	src := op.sc.call.Args[2]
	n := sliceLenAffine(px, rv, src, env, 0)
	if !n.ok {
		if uniformOnly(lo) {
			return dimForm{form: formBlockAt, idx: lo}
		}
		return dimForm{form: formUnknown}
	}
	return dimForm{form: formInterval, lo: lo, hi: lo.add(n)}
}

// sliceLenAffine resolves the length of a slice expression: x[a:b] has
// length b-a, make([]T, n) has length n, and an identifier follows its
// unique definition.
func sliceLenAffine(px *PkgIndex, rv *resolver, e ast.Expr, env resolveEnv, depth int) affine {
	if depth > maxResolveDepth {
		return aBad()
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return sliceLenAffine(px, rv, x.X, env, depth+1)
	case *ast.SliceExpr:
		if x.Slice3 {
			return aBad()
		}
		lo := aConst(0)
		if x.Low != nil {
			lo = rv.exprAffine(x.Low, env)
		}
		if x.High == nil {
			return aBad()
		}
		hi := rv.exprAffine(x.High, env)
		return hi.sub(lo)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 2 {
			return rv.exprAffine(x.Args[1], env)
		}
	case *ast.Ident:
		obj := px.info.Uses[x]
		if obj == nil {
			return aBad()
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
			return aBad()
		}
		if rhs, _ := defRHS(px.info, d); rhs != nil {
			denv := env
			denv.loops = nil
			for _, lr := range env.loops {
				if lr.stmt.Pos() <= d.site.Pos() && d.site.Pos() < lr.stmt.End() {
					denv.loops = append(denv.loops, lr)
				}
			}
			return sliceLenAffine(px, rv, rhs, denv, depth+1)
		}
	}
	return aBad()
}

// checkPhaseRaces compares all write pairs per array and reports.
func checkPhaseRaces(pass *Pass, rv *resolver, phase *unit, ops []writeOp) {
	root := rv.px.vpRoot(phase)
	singleVP := root != nil && vpEntrySingleVP(rv.px, root)
	byArr := map[types.Object][]int{}
	var order []types.Object
	for i, op := range ops {
		if op.arr == nil {
			// Unidentifiable target: report possible directly.
			pass.reportTagged(op.pos, "phaserace.possible",
				"cannot prove VP write sets disjoint: %s", op.why)
			continue
		}
		if _, seen := byArr[op.arr]; !seen {
			order = append(order, op.arr)
		}
		byArr[op.arr] = append(byArr[op.arr], i)
	}
	for _, arr := range order {
		idxs := byArr[arr]
		allAdd := true
		for _, i := range idxs {
			if !ops[i].add {
				allAdd = false
			}
		}
		if allAdd {
			continue // Add is combining: add/add pairs never conflict
		}
		reported := map[[2]int]bool{}
		for a := 0; a < len(idxs); a++ {
			for b := a; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				if ops[i].add && ops[j].add {
					continue
				}
				key := [2]int{i, j}
				if reported[key] {
					continue
				}
				// A site's one writer per node, or in the cluster, has no
				// same-node, or no, partner VP running that site.
				self := i == j
				v := vDisjoint
				if !singleVP && !(self && ops[i].one >= gNode) {
					v = pairVerdict(rv, &ops[i], &ops[j], true)
				}
				// Node arrays have per-node instances; everything else
				// (Global, Global2D) is shared across nodes and must also
				// be disjoint for cross-node instance pairs.
				if v == vDisjoint && ops[i].typ != "Node" && ops[j].typ != "Node" && !(self && ops[i].one == gCluster) {
					v = pairVerdict(rv, &ops[i], &ops[j], false)
				}
				why := whyOf(ops[i], ops[j])
				// The pair verdict assumed every VP runs both sites; a
				// guard leaves that true only for one site's known writers.
				guarded := ops[i].one != gNone || ops[j].one != gNone
				if v == vOverlap && (ops[i].partial || ops[j].partial || guarded && !self) {
					v, why = vUnknown, "a rank-dependent condition decides which VPs execute the write"
				}
				switch v {
				case vOverlap:
					reported[key] = true
					pass.reportTagged(ops[i].pos, "phaserace",
						"VP instances of this phase write overlapping elements of %s%s: "+
							"the end-of-phase commit cannot order them — make the index sets disjoint or use Add",
						arr.Name(), otherSite(pass, ops[i], ops[j]))
				case vUnknown:
					reported[key] = true
					pass.reportTagged(ops[i].pos, "phaserace.possible",
						"cannot prove VP write sets of %s disjoint%s: %s",
						arr.Name(), otherSite(pass, ops[i], ops[j]), why)
				}
			}
		}
	}
}

func whyOf(a, b writeOp) string {
	if a.why != "" {
		return a.why
	}
	if b.why != "" {
		return b.why
	}
	return "index forms are affine but their difference is not decidable"
}

func otherSite(pass *Pass, a, b writeOp) string {
	if a.pos == b.pos {
		return ""
	}
	return fmt.Sprintf(" (with the write at line %d)", pass.Fset.Position(b.pos).Line)
}

// pairVerdict decides the relation of two ops' write sets for a pair of
// distinct VP instances, on the same node or across nodes.
func pairVerdict(rv *resolver, a, b *writeOp, sameNode bool) verdict {
	if len(a.dims) != len(b.dims) {
		return vUnknown
	}
	// Multi-dimensional: disjoint if any dimension is provably
	// disjoint; overlap only if every dimension provably overlaps.
	res := vOverlap
	for d := range a.dims {
		switch dimVerdict(rv, a.dims[d], b.dims[d], sameNode) {
		case vDisjoint:
			return vDisjoint
		case vUnknown:
			res = vUnknown
		}
	}
	return res
}

func dimVerdict(rv *resolver, a, b dimForm, sameNode bool) verdict {
	switch {
	case a.form == formUnknown || b.form == formUnknown:
		return vUnknown
	case a.form == formPoint && b.form == formPoint:
		return pointPair(a.idx, b.idx, sameNode)
	case a.form == formInterval && b.form == formInterval:
		return intervalPair(rv, a, b, sameNode)
	case a.form == formChunkElems && b.form == formChunkElems:
		if sameNode && a.elems == b.elems && a.chunkID == b.chunkID {
			return vDisjoint
		}
		return vUnknown
	case a.form == formBlockAt && b.form == formBlockAt && a.idx.equal(b.idx):
		return vOverlap // every VP's block starts at the same element
	default:
		return vUnknown
	}
}

// pairDiff reduces b - a for a pair of distinct VP instances: symbols
// with equal values for the pair cancel; structured per-VP and per-node
// symbols accumulate into coefficient buckets. decidable is false when
// a symbol with unknown pair behavior (chunk bounds, node variables
// across nodes, loop leftovers) survives.
type pairDiff struct {
	decidable bool
	d         int64 // constant part
	rank      int64 // coefficient of (rank(b) - rank(a)); same-node: δ != 0
	grank     int64 // coefficient of (grank(b) - grank(a))
	nodeID    int64 // cross-node: coefficient of (node(b) - node(a)) != 0
	owner     int64 // cross-node: coefficient of (ownerLo/Hi delta) != 0
}

func diffOf(x, y affine, sameNode bool) pairDiff {
	pd := pairDiff{decidable: x.ok && y.ok}
	if !pd.decidable {
		return pd
	}
	pd.d = y.c - x.c
	union := map[sym]bool{}
	for s := range x.t {
		union[s] = true
	}
	for s := range y.t {
		union[s] = true
	}
	ownerSeen := map[any]int64{}
	for s := range union {
		cx, cy := x.t[s], y.t[s]
		switch s.kind {
		case kUniform:
			if cx != cy {
				pd.decidable = false
			}
		case kNodeVar:
			if cx != cy || (!sameNode && cx != 0) {
				pd.decidable = false
			}
		case kNodeID:
			if cx != cy {
				pd.decidable = false
			} else if !sameNode {
				pd.nodeID += cx
			}
		case kNodeRank:
			if cx != cy {
				pd.decidable = false
			} else {
				pd.rank += cx
			}
		case kGlobalRank:
			if cx != cy {
				pd.decidable = false
			} else {
				pd.grank += cx
			}
		case kOwnerLo, kOwnerHi:
			if cx != cy {
				pd.decidable = false
			} else if !sameNode {
				ownerSeen[s.key] += cx
			}
		case kChunkLo, kChunkHi, kLoop:
			if cx != 0 || cy != 0 {
				pd.decidable = false
			}
		}
	}
	for _, c := range ownerSeen {
		pd.owner += c
	}
	return pd
}

// pointPair decides two point indices.
func pointPair(x, y affine, sameNode bool) verdict {
	pd := diffOf(x, y, sameNode)
	if !pd.decidable {
		return vUnknown
	}
	if sameNode {
		// Same node: grank delta equals rank delta (ranks are dense and
		// node-contiguous), both are the same nonzero δ.
		coef := pd.rank + pd.grank
		switch {
		case coef == 0 && pd.d == 0:
			return vOverlap // same index for every pair
		case coef == 0:
			return vDisjoint
		case pd.d == 0:
			return vDisjoint // coef*δ != 0 for δ != 0
		case pd.d%coef == 0:
			return vOverlap // δ = -d/coef collides (halo idiom)
		default:
			return vDisjoint
		}
	}
	// Cross-node: grank deltas are never zero; nodeID and owner deltas
	// are nonzero; rank deltas can be anything (equal ranks exist).
	switch {
	case pd.rank == 0 && pd.grank != 0 && pd.nodeID == 0 && pd.owner == 0 && pd.d == 0:
		return vDisjoint // globalRank-indexed: distinct everywhere
	case pd.rank == 0 && pd.grank == 0 && (pd.nodeID != 0 || pd.owner != 0) && pd.d == 0 && !(pd.nodeID != 0 && pd.owner != 0):
		return vDisjoint // anchored to a distinct per-node quantity
	case pd.grank == 0 && pd.nodeID == 0 && pd.owner == 0:
		// d + rank*δn with δn free over all integers (including 0).
		if pd.rank == 0 {
			if pd.d == 0 {
				return vOverlap
			}
			return vDisjoint
		}
		if pd.d%pd.rank == 0 {
			return vOverlap // equal or offset ranks collide across nodes
		}
		return vDisjoint
	default:
		return vUnknown
	}
}

// chunkStruct decomposes an interval as rest + [chunkLo(s), chunkHi(s))
// with a single shared chunk site, returning (rest, site, true).
func chunkStruct(d dimForm) (affine, int, bool) {
	if d.form != formInterval || !d.lo.ok || !d.hi.ok {
		return affine{}, 0, false
	}
	var loSite, hiSite = -1, -2
	restLo := d.lo.clone()
	restHi := d.hi.clone()
	for s, c := range d.lo.t {
		if s.kind == kChunkLo {
			if c != 1 || loSite != -1 {
				return affine{}, 0, false
			}
			loSite = s.key.(int)
			delete(restLo.t, s)
		} else if s.kind == kChunkHi {
			return affine{}, 0, false
		}
	}
	for s, c := range d.hi.t {
		if s.kind == kChunkHi {
			if c != 1 || hiSite != -2 {
				return affine{}, 0, false
			}
			hiSite = s.key.(int)
			delete(restHi.t, s)
		} else if s.kind == kChunkLo {
			return affine{}, 0, false
		}
	}
	if loSite < 0 || loSite != hiSite || !restLo.equal(restHi) {
		return affine{}, 0, false
	}
	return restLo, loSite, true
}

// ownerAnchored reports whether rest places a chunk interval inside its
// node's owner partition: rest = uniform + 1*ownerLo(A) and the chunk
// site's n equals ownerHi(A) - ownerLo(A).
func ownerAnchored(rv *resolver, rest affine, cid int) (anchor any, ok bool) {
	var arrKey any
	for s, c := range rest.t {
		switch s.kind {
		case kOwnerLo:
			if c != 1 || arrKey != nil {
				return nil, false
			}
			arrKey = s.key
		case kUniform:
			// fine: same value everywhere
		default:
			return nil, false
		}
	}
	if arrKey == nil {
		return nil, false
	}
	n := rv.chunkN[cid]
	want := aSym(sym{kOwnerHi, arrKey}).sub(aSym(sym{kOwnerLo, arrKey}))
	if !n.equal(want) {
		return nil, false
	}
	return arrKey, true
}

// uniformOnly reports whether every symbol of a is kUniform.
func uniformOnly(a affine) bool {
	if !a.ok {
		return false
	}
	for s := range a.t {
		if s.kind != kUniform {
			return false
		}
	}
	return true
}

// intervalPair decides two interval forms.
func intervalPair(rv *resolver, a, b dimForm, sameNode bool) verdict {
	restA, siteA, structA := chunkStruct(a)
	restB, siteB, structB := chunkStruct(b)

	if sameNode {
		if structA && structB && siteA == siteB {
			// Same partition: disjoint when the rests agree; a constant
			// offset slides one window over the adjacent chunk.
			pd := diffOf(restA, restB, true)
			if pd.decidable && pd.rank == 0 && pd.grank == 0 {
				if pd.d == 0 {
					return vDisjoint
				}
				return vOverlap // halo: adjacent chunks collide
			}
			return vUnknown
		}
		if structA != structB {
			return vUnknown
		}
		if structA && siteA != siteB {
			return vUnknown
		}
		// Unstructured: translated copies of one window.
		pdLo := diffOf(a.lo, b.lo, true)
		pdHi := diffOf(a.hi, b.hi, true)
		if !pdLo.decidable || !pdHi.decidable {
			return vUnknown
		}
		coefLo, coefHi := pdLo.rank+pdLo.grank, pdHi.rank+pdHi.grank
		if coefLo == 0 && coefHi == 0 && pdLo.d == 0 && pdHi.d == 0 {
			return vOverlap // identical interval for every VP
		}
		if coefLo == coefHi && pdLo.d == pdHi.d && pdLo.d == 0 && coefLo != 0 {
			// Translates by coef*δ; disjoint when |coef| >= width.
			if w, ok := a.hi.sub(a.lo).isConst(); ok && w > 0 {
				if coefLo >= w || -coefLo >= w {
					return vDisjoint
				}
				return vOverlap // stride smaller than width
			}
		}
		return vUnknown
	}

	// Cross-node.
	if structA && structB && siteA == siteB {
		anchorA, okA := ownerAnchored(rv, restA, siteA)
		anchorB, okB := ownerAnchored(rv, restB, siteB)
		if okA && okB && anchorA == anchorB {
			// Both windows sit inside their node's owner partition of
			// the same array, and owner partitions are disjoint across
			// nodes; equal rests mean equal structure on every node.
			if restA.equal(restB) {
				return vDisjoint
			}
			if c, isConst := restB.sub(restA).isConst(); isConst && c != 0 {
				return vOverlap // shifted windows cross partition edges
			}
			return vUnknown
		}
		// Same chunk partition with uniform rests and uniform n: equal
		// ranks on two nodes write the same window.
		if uniformOnly(restA) && uniformOnly(restB) && uniformOnly(rv.chunkN[siteA]) {
			pd := diffOf(restA, restB, false)
			if pd.decidable {
				return vOverlap
			}
		}
		return vUnknown
	}
	if !structA && !structB {
		// Identical uniform windows on every node overlap.
		if uniformOnly(a.lo) && uniformOnly(a.hi) && a.lo.equal(b.lo) && a.hi.equal(b.hi) {
			return vOverlap
		}
	}
	return vUnknown
}
