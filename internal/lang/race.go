package lang

import "fmt"

// This file implements lintPhaseRace, the .ppm counterpart of the
// Go-side phaserace analyzer: it models each in-phase write's index as
// an affine form over the rank builtins, loop variables, and owned-range
// bounds, then decides pairwise whether two VP instances of the phase
// can write the same element. Writes a VP combines with += never
// conflict (the commit adds them); plain writes conflict exactly when
// the index sets of two distinct VPs intersect. Proven intersections
// are reported as "phaserace", undecidable index sets as
// "phaserace.possible".
//
// Rank guards follow the Go analyzer's rule. vp_global_rank == c admits
// one writer in the cluster. vp_node_rank == c, and a function every
// `do` starts with K = 1, admit one writer per node: no race on a node
// array, still a race on a global array at an index every node shares.
// Any other rank-dependent condition exempts nothing, but an overlap it
// would have proven becomes phaserace.possible.

// Symbol kinds of the affine forms. Each kind fixes how the symbol's
// value differs between two VP instances of the same phase, which is
// all the pairwise test needs.
const (
	rNodeRank   = iota // vp_node_rank: distinct across a node's VPs
	rGlobalRank        // vp_global_rank: distinct across all VPs
	rNodeID            // node_id: distinct across nodes
	rOwnerLo           // my_lo(A): per-node partition start
	rOwnerHi           // my_hi(A): per-node partition end
	rNodeVar           // per-node value (function parameters)
	rUniform           // same value for every VP (vp_count, rank-free vars)
	rLoop              // for-loop offset from its lower bound: [0, extent)
	rVarying           // reassigned rank-free variable: varies per iteration
	rStride            // k*step accumulated by a stride loop
)

type rsym struct {
	kind int
	name string
	seq  int
}

// raff is c + Σ coef·sym, or "not affine" when ok is false.
type raff struct {
	ok bool
	c  int64
	t  map[rsym]int64
}

func rConst(v int64) raff { return raff{ok: true, c: v} }
func rSym(s rsym) raff    { return raff{ok: true, t: map[rsym]int64{s: 1}} }

func (a raff) addScaled(b raff, k int64) raff {
	if !a.ok || !b.ok {
		return raff{}
	}
	out := raff{ok: true, c: a.c + k*b.c, t: map[rsym]int64{}}
	for s, c := range a.t {
		out.t[s] += c
	}
	for s, c := range b.t {
		out.t[s] += k * c
	}
	for s, c := range out.t {
		if c == 0 {
			delete(out.t, s)
		}
	}
	return out
}

func (a raff) add(b raff) raff    { return a.addScaled(b, 1) }
func (a raff) sub(b raff) raff    { return a.addScaled(b, -1) }
func (a raff) scale(k int64) raff { return rConst(0).addScaled(a, k) }

func (a raff) isConst() (int64, bool) {
	if !a.ok {
		return 0, false
	}
	for _, c := range a.t {
		if c != 0 {
			return 0, false
		}
	}
	return a.c, true
}

// pureSym matches a form that is exactly one symbol (coefficient 1, no
// constant part).
func (a raff) pureSym() (rsym, bool) {
	if !a.ok || a.c != 0 || len(a.t) != 1 {
		return rsym{}, false
	}
	for s, c := range a.t {
		if c == 1 {
			return s, true
		}
	}
	return rsym{}, false
}

// loopInfo describes one for loop's canonicalized offset symbol.
type loopInfo struct {
	extent int64  // hi - lo when it folds to a constant
	known  bool   // extent is known
	owner  string // bounds are exactly my_lo(owner) .. my_hi(owner)
}

// raceCtx resolves the scalar variables of one function to affine
// forms.
type raceCtx struct {
	consts  map[string]int64
	shared  map[string]*SharedDecl
	tainted map[string]bool
	defs    map[string][]Expr // every RHS assigned to each scalar
	params  map[string]bool
	env     map[string]raff // in-scope loop-variable bindings
	inres   map[string]bool // cycle guard for resolveVar
	loops   map[rsym]loopInfo
	strides map[rsym]int64 // rStride symbol -> vp_count multiplier
	seq     int
}

func newRaceCtx(f *FuncDecl, consts map[string]int64, shared map[string]*SharedDecl) *raceCtx {
	cx := &raceCtx{
		consts:  consts,
		shared:  shared,
		tainted: taintedVars(f),
		defs:    map[string][]Expr{},
		params:  map[string]bool{},
		env:     map[string]raff{},
		inres:   map[string]bool{},
		loops:   map[rsym]loopInfo{},
		strides: map[rsym]int64{},
	}
	for _, p := range f.Params {
		cx.params[p.Name] = true
	}
	walkStmt(f.Body, func(s Stmt) {
		switch st := s.(type) {
		case *VarDecl:
			init := st.Init
			if init == nil {
				init = &IntLit{}
			}
			cx.defs[st.Name] = append(cx.defs[st.Name], init)
		case *Assign:
			if st.Target.Index != nil {
				return
			}
			rhs := st.Value
			if st.Add {
				rhs = &Binary{Op: PLUS, L: &Ident{Name: st.Target.Name}, R: st.Value}
			}
			cx.defs[st.Target.Name] = append(cx.defs[st.Target.Name], rhs)
		}
	})
	return cx
}

// resolve turns an index expression into an affine form over the race
// symbols, or "not affine".
func (cx *raceCtx) resolve(e Expr) raff {
	switch ex := e.(type) {
	case *IntLit:
		return rConst(ex.Value)
	case *Ident:
		return cx.resolveVar(ex.Name)
	case *Unary:
		if ex.Op == MINUS {
			return cx.resolve(ex.X).scale(-1)
		}
	case *Binary:
		l, r := cx.resolve(ex.L), cx.resolve(ex.R)
		switch ex.Op {
		case PLUS:
			return l.add(r)
		case MINUS:
			return l.sub(r)
		case STAR:
			if v, ok := l.isConst(); ok {
				return r.scale(v)
			}
			if v, ok := r.isConst(); ok {
				return l.scale(v)
			}
		case SLASH, PERCENT:
			lv, lok := l.isConst()
			rv, rok := r.isConst()
			if lok && rok && rv != 0 {
				if ex.Op == SLASH {
					return rConst(lv / rv)
				}
				return rConst(lv % rv)
			}
		}
	case *Call:
		if (ex.Name == "my_lo" || ex.Name == "my_hi") && len(ex.Args) == 1 {
			if id, ok := ex.Args[0].(*Ident); ok {
				kind := rOwnerLo
				if ex.Name == "my_hi" {
					kind = rOwnerHi
				}
				return rSym(rsym{kind: kind, name: id.Name})
			}
		}
	}
	return raff{}
}

func (cx *raceCtx) resolveVar(name string) raff {
	if a, ok := cx.env[name]; ok {
		return a
	}
	switch name {
	case "vp_node_rank":
		return rSym(rsym{kind: rNodeRank})
	case "vp_global_rank":
		return rSym(rsym{kind: rGlobalRank})
	case "node_id":
		return rSym(rsym{kind: rNodeID})
	}
	if v, ok := cx.consts[name]; ok {
		return rConst(v)
	}
	if cx.inres[name] {
		return raff{}
	}
	cx.inres[name] = true
	a := cx.resolveDefs(name)
	delete(cx.inres, name)
	return a
}

func (cx *raceCtx) resolveDefs(name string) raff {
	ds := cx.defs[name]
	if len(ds) == 0 {
		// Never assigned in this function: a parameter or builtin.
		// Parameters come from node-level main code (per-node values);
		// everything else (vp_count, cores_per_node, num_nodes) is the
		// same for every VP of a phase.
		if cx.params[name] {
			return rSym(rsym{kind: rNodeVar, name: name})
		}
		return rSym(rsym{kind: rUniform, name: name})
	}
	if len(ds) == 1 {
		return cx.resolve(ds[0])
	}
	if base, mul, ok := cx.strideForm(name, ds); ok {
		s := rsym{kind: rStride, name: name}
		cx.strides[s] = mul
		return base.add(rSym(s))
	}
	if cx.tainted[name] {
		return raff{}
	}
	return rSym(rsym{kind: rVarying, name: name})
}

// strideForm matches the striding idiom: one base definition plus
// self-increments by the same multiple of vp_count
// (`row = my_lo(A) + vp_node_rank; ... row = row + vp_count`). The
// variable's values are then base + k*m*vp_count, which the pairwise
// test can reason about exactly.
func (cx *raceCtx) strideForm(name string, ds []Expr) (raff, int64, bool) {
	var base Expr
	mul := int64(0)
	for _, d := range ds {
		if inc, ok := selfIncrement(name, d); ok {
			m, ok := cx.vpCountMultiple(inc)
			if !ok || m <= 0 || (mul != 0 && m != mul) {
				return raff{}, 0, false
			}
			mul = m
			continue
		}
		if base != nil {
			return raff{}, 0, false
		}
		base = d
	}
	if base == nil || mul == 0 {
		return raff{}, 0, false
	}
	b := cx.resolve(base)
	if !b.ok {
		return raff{}, 0, false
	}
	return b, mul, true
}

// selfIncrement matches `name + e` or `e + name` and returns e.
func selfIncrement(name string, e Expr) (Expr, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != PLUS {
		return nil, false
	}
	if id, ok := b.L.(*Ident); ok && id.Name == name {
		return b.R, true
	}
	if id, ok := b.R.(*Ident); ok && id.Name == name {
		return b.L, true
	}
	return nil, false
}

// vpCountMultiple reports m when e evaluates to m*vp_count.
func (cx *raceCtx) vpCountMultiple(e Expr) (int64, bool) {
	a := cx.resolve(e)
	if !a.ok || a.c != 0 || len(a.t) != 1 {
		return 0, false
	}
	for s, c := range a.t {
		if s.kind == rUniform && s.name == "vp_count" {
			return c, true
		}
	}
	return 0, false
}

// Writers a one-writer condition admits.
const (
	oneNone    = iota // every VP
	oneNode           // one per node: vp_node_rank == c
	oneCluster        // one in the cluster: vp_global_rank == c
)

// wop is one plain (non-+=) write to a shared array inside a phase.
type wop struct {
	arr *SharedDecl
	idx raff
	pos Token
	one int // the strongest one-writer guard enclosing the write
	// approx: another rank-dependent if or while decides which VPs run
	// the write (or how often), so overlap claims are only "possible"
	approx bool
}

// oneWriter classifies a condition r == c, for one rank builtin r and a
// uniform c: it holds in one VP (vp_global_rank) or one VP per node
// (vp_node_rank). Any other condition bounds nothing.
func (cx *raceCtx) oneWriter(cond Expr) int {
	b, ok := cond.(*Binary)
	if !ok || b.Op != EQ {
		return oneNone
	}
	one := oneNone
	for s := range cx.resolve(b.L).sub(cx.resolve(b.R)).t {
		switch {
		case s.kind == rUniform:
		case one == oneNone && s.kind == rGlobalRank:
			one = oneCluster
		case one == oneNone && s.kind == rNodeRank:
			one = oneNode
		default:
			return oneNone
		}
	}
	return one
}

// phaseWrites collects the phase's plain writes with the rank guards
// enclosing them, binding for loops to canonical offset symbols on the
// way (the loop variable becomes lo + j with j in [0, hi-lo), so
// rank-dependent bounds land in the affine base where the pairwise test
// can see them).
func (cx *raceCtx) phaseWrites(p *Phase) []wop {
	var ops []wop
	var scan func(s Stmt, one int, approx bool)
	scan = func(s Stmt, one int, approx bool) {
		switch st := s.(type) {
		case *Block:
			for _, n := range st.Stmts {
				scan(n, one, approx)
			}
		case *If:
			dep := rankDependent(st.Cond, cx.tainted)
			k := oneNone
			if dep {
				k = cx.oneWriter(st.Cond)
			}
			scan(st.Then, max(one, k), approx || dep && k == oneNone)
			if st.Else != nil {
				scan(st.Else, one, approx || dep)
			}
		case *While:
			scan(st.Body, one, approx || rankDependent(st.Cond, cx.tainted))
		case *For:
			lo, hi := cx.resolve(st.Lo), cx.resolve(st.Hi)
			j := rsym{kind: rLoop, name: st.Var, seq: cx.seq}
			cx.seq++
			info := loopInfo{}
			if ext, ok := hi.sub(lo).isConst(); ok && ext > 0 {
				info.extent, info.known = ext, true
			}
			if ls, ok := lo.pureSym(); ok && ls.kind == rOwnerLo {
				if hs, ok := hi.pureSym(); ok && hs.kind == rOwnerHi && hs.name == ls.name {
					info.owner = ls.name
				}
			}
			cx.loops[j] = info
			binding := raff{}
			if lo.ok && hi.ok {
				binding = lo.add(rSym(j))
			}
			old, had := cx.env[st.Var]
			cx.env[st.Var] = binding
			scan(st.Body, one, approx)
			if had {
				cx.env[st.Var] = old
			} else {
				delete(cx.env, st.Var)
			}
		case *Assign:
			if st.Add || st.Target.Index == nil {
				return
			}
			sh := cx.shared[st.Target.Name]
			if sh == nil {
				return
			}
			ops = append(ops, wop{arr: sh, idx: cx.resolve(st.Target.Index), pos: st.Target.Pos, one: one, approx: approx})
		}
	}
	scan(p.Body, oneNone, false)
	return ops
}

// guardedReason explains a possible overlap that a rank guard leaves
// unproven.
const guardedReason = "a rank-dependent condition decides which VPs execute the write"

// Pairwise verdicts, ordered so that combining with max keeps the worst.
const (
	vSkip     = iota // coefficient mismatch: the difference test says nothing
	vDisjoint        // no two distinct VPs write the same element
	vPossible        // cannot decide
	vOverlap         // two distinct VPs provably write the same element
)

type verdict struct {
	v      int
	reason string
}

func worse(a, b verdict) verdict {
	if b.v > a.v {
		return b
	}
	return a
}

// rterm is the difference contribution coef*(v1 - v2) of one symbol,
// with the delta set the instance pair allows: which deltas are
// possible, whether every possible delta is actually realized by some
// pair of distinct VPs (needed before claiming a proven overlap), and a
// bound when the symbol spans a known range.
type rterm struct {
	c         int64
	zeroOK    bool
	zeroExact bool
	nonZero   bool
	bound     int64 // |delta| < bound when > 0
	exact     bool  // every allowed delta is realized
	sym       rsym
}

func rabs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// pairVerdict decides whether two VP instances (of the same node when
// sameNode, of different nodes otherwise) can write the same element
// through these two writes.
func (cx *raceCtx) pairVerdict(a, b *wop, sameNode bool) verdict {
	if !a.idx.ok || !b.idx.ok {
		return verdict{vPossible, "the index is not an affine function of ranks, constants, and loop bounds"}
	}
	d := a.idx.c - b.idx.c
	syms := map[rsym]bool{}
	for s := range a.idx.t {
		syms[s] = true
	}
	for s := range b.idx.t {
		syms[s] = true
	}
	approx := a.approx || b.approx
	var terms []rterm
	var stride *rterm
	for s := range syms {
		ca, cb := a.idx.t[s], b.idx.t[s]
		if ca != cb {
			// The two writes scale this symbol differently; their
			// relation is beyond the pairwise difference test, and the
			// per-write (self-pair) tests still cover each side.
			return verdict{vSkip, ""}
		}
		t := rterm{c: ca, sym: s}
		switch s.kind {
		case rUniform:
			continue // same value in both instances: cancels
		case rNodeRank:
			if sameNode {
				t.nonZero, t.exact = true, true
			} else {
				t.zeroOK, t.zeroExact, t.nonZero, t.exact = true, true, true, true
			}
		case rGlobalRank:
			t.nonZero, t.exact = true, true
		case rNodeID:
			if sameNode {
				continue
			}
			t.nonZero, t.exact = true, true
		case rOwnerLo, rOwnerHi:
			if sameNode {
				continue
			}
			// Partition bounds are distinct across nodes, but by an
			// unknown amount.
			t.nonZero = true
		case rNodeVar:
			if sameNode {
				continue
			}
			t.zeroOK, t.nonZero = true, true
		case rLoop:
			info := cx.loops[s]
			t.zeroOK, t.zeroExact, t.nonZero = true, true, true
			if info.known {
				t.bound, t.exact = info.extent, true
				t.nonZero = info.extent > 1
			}
		case rVarying:
			t.zeroOK, t.zeroExact, t.nonZero = true, true, true
		case rStride:
			st := t
			stride = &st
			continue
		}
		terms = append(terms, t)
	}

	if stride != nil {
		return cx.strideVerdict(d, terms, stride, sameNode, approx)
	}
	if !sameNode {
		if v, decided := ownerAnchored(cx, d, terms); decided {
			return v
		}
	}
	return solveTerms(d, terms, approx)
}

// ownerAnchored recognizes the owned-partition idiom across nodes: both
// indices are my_lo(A) + j with j spanning [0, my_hi(A)-my_lo(A)).
// Every element then lies inside the writer's owned range, and owned
// ranges of different nodes are disjoint by construction.
func ownerAnchored(cx *raceCtx, d int64, terms []rterm) (verdict, bool) {
	if len(terms) != 2 {
		return verdict{}, false
	}
	lo, loop := terms[0], terms[1]
	if lo.sym.kind != rOwnerLo {
		lo, loop = loop, lo
	}
	if lo.sym.kind != rOwnerLo || lo.c != 1 || loop.sym.kind != rLoop || loop.c != 1 {
		return verdict{}, false
	}
	if cx.loops[loop.sym].owner != lo.sym.name {
		return verdict{}, false
	}
	if d == 0 {
		return verdict{vDisjoint, ""}, true
	}
	return verdict{vPossible, "the constant offset may cross the owned-range boundary"}, true
}

// strideVerdict handles indices that accumulate m*vp_count per
// iteration. Same-node ranks differ by less than vp_count, so a rank
// term with a small enough coefficient can never be cancelled by whole
// strides: the classic `my_lo(A) + vp_node_rank` + `vp_count` stride is
// proven disjoint here.
func (cx *raceCtx) strideVerdict(d int64, terms []rterm, stride *rterm, sameNode, approx bool) verdict {
	if !sameNode {
		return verdict{vPossible, "stride loops are only compared between VPs of one node"}
	}
	m := rabs(stride.c) * cx.strides[stride.sym]
	if len(terms) == 0 {
		if d == 0 {
			if approx {
				return verdict{vPossible, "every VP strides over the same elements"}
			}
			return verdict{vOverlap, ""}
		}
		return verdict{vPossible, "the offset may land on another VP's stride"}
	}
	if len(terms) == 1 && terms[0].sym.kind == rNodeRank {
		cr := terms[0].c
		if d == 0 && rabs(cr) <= m {
			return verdict{vDisjoint, ""}
		}
		if cr != 0 && d%cr == 0 && rabs(d/cr) == 1 && !approx {
			return verdict{vOverlap, ""}
		}
	}
	return verdict{vPossible, "the stride pattern does not decide this pair"}
}

// solveTerms decides whether d + Σ c_i*delta_i = 0 has a solution in
// the allowed delta sets: none -> the writes are disjoint, a solution
// whose deltas are all realized -> a proven overlap.
func solveTerms(d int64, terms []rterm, approx bool) verdict {
	switch len(terms) {
	case 0:
		if d == 0 {
			if approx {
				return verdict{vPossible, guardedReason}
			}
			return verdict{vOverlap, ""}
		}
		return verdict{vDisjoint, ""}
	case 1:
		return solveOne(d, terms[0], approx)
	case 2:
		// Enumerate a bounded term and decide the rest per value.
		for i := range terms {
			t := terms[i]
			if t.bound > 0 && t.bound <= 4096 {
				other := terms[1-i]
				best := verdict{vDisjoint, ""}
				for delta := -(t.bound - 1); delta < t.bound; delta++ {
					if delta == 0 && !t.zeroOK {
						continue
					}
					if delta != 0 && !t.nonZero {
						continue
					}
					best = worse(best, solveOne(d+t.c*delta, other, approx || !t.exact))
					if best.v == vOverlap {
						return best
					}
				}
				return best
			}
		}
	}
	return verdict{vPossible, "the affine checker cannot relate these index expressions"}
}

// solveOne decides d + c*delta = 0 for a single term.
func solveOne(d int64, t rterm, approx bool) verdict {
	if t.c == 0 || d%t.c != 0 {
		return verdict{vDisjoint, ""}
	}
	q := d / t.c // the solution is delta = -q
	if q == 0 {
		if !t.zeroOK {
			return verdict{vDisjoint, ""}
		}
		if t.zeroExact && !approx {
			return verdict{vOverlap, ""}
		}
		return verdict{vPossible, "two VPs may evaluate the same index"}
	}
	if !t.nonZero || (t.bound > 0 && rabs(q) >= t.bound) {
		return verdict{vDisjoint, ""}
	}
	if t.exact && !approx {
		return verdict{vOverlap, ""}
	}
	return verdict{vPossible, "two VPs may evaluate the same index"}
}

// singleVPFuncs returns the predicate "every do of this function starts
// a single VP per node": then no same-node pair exists.
func singleVPFuncs(prog *Program, consts map[string]int64) func(string) bool {
	main := newRaceCtx(&FuncDecl{Body: prog.Main}, consts, nil)
	doK := map[string][]Expr{}
	walkStmt(prog.Main, func(s Stmt) {
		if d, ok := s.(*Do); ok {
			doK[d.Name] = append(doK[d.Name], d.K)
		}
	})
	return func(fname string) bool {
		ks := doK[fname]
		if len(ks) == 0 {
			return false
		}
		for _, k := range ks {
			if v, ok := main.resolve(k).isConst(); !ok || v != 1 {
				return false
			}
		}
		return true
	}
}

// lintPhaseRace runs the pairwise write-overlap test over every phase.
// Node arrays have one instance per node, so only same-node pairs are
// compared (and none when every do of the function starts one VP per
// node); global arrays are additionally compared across nodes, where
// same-rank VPs of two nodes are a legal pair. A proven overlap is
// reported at the later write of the pair; an undecidable write is
// reported once, unless it is already part of a proven overlap.
func lintPhaseRace(prog *Program, consts map[string]int64, shared map[string]*SharedDecl) []Diag {
	singleVP := singleVPFuncs(prog, consts)
	var diags []Diag
	for _, f := range prog.Funcs {
		cx := newRaceCtx(f, consts, shared)
		single := singleVP(f.Name)
		walkStmt(f.Body, func(s Stmt) {
			p, ok := s.(*Phase)
			if !ok {
				return
			}
			ops := cx.phaseWrites(p)
			inOverlap := make([]bool, len(ops))
			possible := make([]string, len(ops))
			seen := map[string]bool{}
			for i := 0; i < len(ops); i++ {
				for j := i; j < len(ops); j++ {
					if ops[i].arr != ops[j].arr {
						continue
					}
					// A write's one writer per node, or in the cluster, has
					// no same-node, or no, partner VP running that write.
					self := i == j
					best := verdict{vSkip, ""}
					if !single && !(self && ops[i].one >= oneNode) {
						best = worse(best, cx.pairVerdict(&ops[i], &ops[j], true))
					}
					if ops[i].arr.GlobalScope && !(self && ops[i].one == oneCluster) {
						best = worse(best, cx.pairVerdict(&ops[i], &ops[j], false))
					}
					// The pair verdict assumed every VP runs both writes; a
					// guard leaves that true only for one write's known
					// writers.
					if best.v == vOverlap && !self && (ops[i].one != oneNone || ops[j].one != oneNone) {
						best = verdict{vPossible, guardedReason}
					}
					switch best.v {
					case vOverlap:
						inOverlap[i], inOverlap[j] = true, true
						site := ""
						if i != j {
							site = fmt.Sprintf(" (with the write at line %d)", ops[i].pos.Line)
						}
						key := fmt.Sprintf("o%d:%d", ops[i].pos.Line, ops[j].pos.Line)
						if !seen[key] {
							seen[key] = true
							diags = append(diags, Diag{
								Line: ops[j].pos.Line, Col: ops[j].pos.Col,
								Rule: "phaserace", Sev: SevWarning,
								Msg: fmt.Sprintf("VP instances of this phase write overlapping elements of %s%s: the end-of-phase commit cannot order them — make the index sets disjoint or use +=", ops[i].arr.Name, site),
							})
						}
					case vPossible:
						// Attribute the uncertainty to the write that
						// caused it: the non-affine side if only one is.
						at := j
						if !ops[i].idx.ok && ops[j].idx.ok {
							at = i
						}
						if possible[at] == "" {
							possible[at] = best.reason
						}
					}
				}
			}
			for k, reason := range possible {
				if reason == "" || inOverlap[k] {
					continue
				}
				key := fmt.Sprintf("p%d", ops[k].pos.Line)
				if seen[key] {
					continue
				}
				seen[key] = true
				diags = append(diags, Diag{
					Line: ops[k].pos.Line, Col: ops[k].pos.Col,
					Rule: "phaserace.possible", Sev: SevWarning,
					Msg: fmt.Sprintf("cannot prove the VP write sets of %s disjoint: %s", ops[k].arr.Name, reason),
				})
			}
		})
	}
	return diags
}
