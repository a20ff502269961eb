package lang

import (
	"fmt"

	pr "ppm/internal/phaserace"
)

// This file lowers each phase of a .ppm program to the write sites of
// internal/phaserace, which decides whether two VP instances of the
// phase can write the same element, and formats its findings. Indices
// become affine forms over the rank builtins, loop offsets, owned-range
// bounds and stride symbols; rank guards, rank-dependent branches and
// loops whose trip count depends on rank mark the sites they enclose.
// Proven overlaps are reported as "phaserace", undecidable write sets
// as "phaserace.possible".

// loopBounds is one for loop's [lo, hi) and whether its trip count
// depends on rank.
type loopBounds struct {
	lo, hi  pr.Affine
	rankDep bool
}

// raceCtx resolves the scalar variables of one function to affine
// forms.
type raceCtx struct {
	consts  map[string]int64
	shared  map[string]*SharedDecl
	tainted map[string]bool
	defs    map[string][]Expr // every RHS assigned to each scalar
	params  map[string]bool
	env     map[string]pr.Affine // in-scope loop-variable bindings
	inres   map[string]bool      // cycle guard for resolveVar
	loops   map[pr.Sym]loopBounds
	seq     int
}

// vpCount is vp_count's symbol: K is per node (a do may start
// `node_id + 1` VPs), exactly as vp.K() is in Go.
var vpCount = pr.Sym{Kind: pr.NodeVar, Key: "vp_count"}

func newRaceCtx(f *FuncDecl, consts map[string]int64, shared map[string]*SharedDecl) *raceCtx {
	cx := &raceCtx{
		consts:  consts,
		shared:  shared,
		tainted: taintedVars(f),
		defs:    map[string][]Expr{},
		params:  map[string]bool{},
		env:     map[string]pr.Affine{},
		inres:   map[string]bool{},
		loops:   map[pr.Sym]loopBounds{},
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
func (cx *raceCtx) resolve(e Expr) pr.Affine {
	switch ex := e.(type) {
	case *IntLit:
		return pr.Const(ex.Value)
	case *Ident:
		return cx.resolveVar(ex.Name)
	case *Unary:
		if ex.Op == MINUS {
			return cx.resolve(ex.X).Scale(-1)
		}
	case *Binary:
		l, r := cx.resolve(ex.L), cx.resolve(ex.R)
		switch ex.Op {
		case PLUS:
			return l.Add(r)
		case MINUS:
			return l.Sub(r)
		case STAR:
			if v, ok := l.IsConst(); ok {
				return r.Scale(v)
			}
			if v, ok := r.IsConst(); ok {
				return l.Scale(v)
			}
		case SLASH, PERCENT:
			lv, lok := l.IsConst()
			rv, rok := r.IsConst()
			if lok && rok && rv != 0 {
				if ex.Op == SLASH {
					return pr.Const(lv / rv)
				}
				return pr.Const(lv % rv)
			}
		}
	case *Call:
		if (ex.Name == "my_lo" || ex.Name == "my_hi") && len(ex.Args) == 1 {
			if id, ok := ex.Args[0].(*Ident); ok {
				kind := pr.OwnerLo
				if ex.Name == "my_hi" {
					kind = pr.OwnerHi
				}
				return pr.Of(pr.Sym{Kind: kind, Key: id.Name})
			}
		}
	}
	return pr.Affine{}
}

func (cx *raceCtx) resolveVar(name string) pr.Affine {
	if a, ok := cx.env[name]; ok {
		return a
	}
	switch name {
	case "vp_node_rank":
		return pr.Of(pr.Sym{Kind: pr.NodeRank})
	case "vp_global_rank":
		return pr.Of(pr.Sym{Kind: pr.GlobalRank})
	case "node_id":
		return pr.Of(pr.Sym{Kind: pr.NodeID})
	}
	if v, ok := cx.consts[name]; ok {
		return pr.Const(v)
	}
	if cx.inres[name] {
		return pr.Affine{}
	}
	cx.inres[name] = true
	a := cx.resolveDefs(name)
	delete(cx.inres, name)
	return a
}

func (cx *raceCtx) resolveDefs(name string) pr.Affine {
	ds := cx.defs[name]
	if len(ds) == 0 {
		// Never assigned in this function: a parameter or builtin.
		// Parameters come from node-level main code (per-node values),
		// and so does vp_count; everything else (cores_per_node,
		// num_nodes) is the same for every VP of a phase.
		switch {
		case name == "vp_count":
			return pr.Of(vpCount)
		case cx.params[name]:
			return pr.Of(pr.Sym{Kind: pr.NodeVar, Key: name})
		}
		return pr.Of(pr.Sym{Kind: pr.Uniform, Key: name})
	}
	if len(ds) == 1 {
		return cx.resolve(ds[0])
	}
	if base, mul, ok := cx.strideForm(name, ds); ok {
		return base.Add(pr.Of(pr.Sym{Kind: pr.Stride, Key: name, N: mul}))
	}
	if cx.tainted[name] {
		return pr.Affine{}
	}
	return pr.Of(pr.Sym{Kind: pr.Varying, Key: name})
}

// strideForm matches the striding idiom: one base definition plus
// self-increments by the same multiple of vp_count
// (`row = my_lo(A) + vp_node_rank; ... row = row + vp_count`). The
// variable's values are then base + k*m*vp_count.
func (cx *raceCtx) strideForm(name string, ds []Expr) (pr.Affine, int64, bool) {
	var base Expr
	mul := int64(0)
	for _, d := range ds {
		if inc, ok := selfIncrement(name, d); ok {
			m, ok := cx.vpCountMultiple(inc)
			if !ok || m <= 0 || (mul != 0 && m != mul) {
				return pr.Affine{}, 0, false
			}
			mul = m
			continue
		}
		if base != nil {
			return pr.Affine{}, 0, false
		}
		base = d
	}
	if base == nil || mul == 0 {
		return pr.Affine{}, 0, false
	}
	b := cx.resolve(base)
	return b, mul, b.OK
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
	m := a.Coef(vpCount)
	return m, a.OK && a.C == 0 && len(a.T) == 1 && m != 0
}

// indexSet lowers a write's index: a point, or, when it sweeps an
// enclosing for loop (the innermost such) with coefficient 1, the
// interval that loop covers.
func (cx *raceCtx) indexSet(idx pr.Affine, loops []pr.Sym) (pr.Set, pr.Sym) {
	if !idx.OK {
		return pr.Set{Form: pr.Unknown}, pr.Sym{}
	}
	for k := len(loops) - 1; k >= 0; k-- {
		if j := loops[k]; idx.Coef(j) == 1 {
			lo := idx.Without(j)
			return pr.Set{Form: pr.Interval, Lo: lo, Hi: lo.Add(cx.loops[j].hi.Sub(cx.loops[j].lo))}, j
		}
	}
	return pr.Set{Form: pr.Point, At: idx}, pr.Sym{}
}

// phaseSites lowers the phase's writes with the guards and loops
// enclosing them. A for loop binds its variable to lo + j, j its offset
// symbol, so rank-dependent bounds land in the affine base.
func (cx *raceCtx) phaseSites(p *Phase) ([]pr.Site, []Token) {
	var sites []pr.Site
	var pos []Token
	var scan func(s Stmt, one pr.Guard, partial bool, loops []pr.Sym)
	scan = func(s Stmt, one pr.Guard, partial bool, loops []pr.Sym) {
		switch st := s.(type) {
		case *Block:
			for _, n := range st.Stmts {
				scan(n, one, partial, loops)
			}
		case *If:
			dep := rankDependent(st.Cond, cx.tainted)
			k := pr.Everyone
			if b, ok := st.Cond.(*Binary); dep && ok && b.Op == EQ {
				k = pr.GuardOf(cx.resolve(b.L).Sub(cx.resolve(b.R)))
			}
			scan(st.Then, max(one, k), partial || dep && k == pr.Everyone, loops)
			if st.Else != nil {
				scan(st.Else, one, partial || dep, loops)
			}
		case *While:
			scan(st.Body, one, partial || rankDependent(st.Cond, cx.tainted), loops)
		case *For:
			lo, hi := cx.resolve(st.Lo), cx.resolve(st.Hi)
			trip := hi.Sub(lo)
			j := pr.Sym{Kind: pr.Loop, Key: cx.seq}
			if n, ok := trip.IsConst(); ok && n > 0 {
				j.N = n
			}
			cx.seq++
			dep := !trip.RankFree()
			if !trip.OK {
				dep = rankDependent(st.Lo, cx.tainted) || rankDependent(st.Hi, cx.tainted)
			}
			cx.loops[j] = loopBounds{lo, hi, dep}
			old, had := cx.env[st.Var]
			cx.env[st.Var] = pr.Affine{}
			if trip.OK {
				cx.env[st.Var] = lo.Add(pr.Of(j))
			}
			scan(st.Body, one, partial, append(loops, j))
			if had {
				cx.env[st.Var] = old
			} else {
				delete(cx.env, st.Var)
			}
		case *Assign:
			sh := cx.shared[st.Target.Name]
			if sh == nil || st.Target.Index == nil {
				return
			}
			set, swept := cx.indexSet(cx.resolve(st.Target.Index), loops)
			site := pr.Site{Array: sh, Global: sh.GlobalScope, Add: st.Add, Dims: []pr.Set{set}, One: one, Partial: partial}
			// A loop whose trip count depends on rank decides how often
			// the write runs, unless the write's interval is that loop's.
			for _, l := range loops {
				site.Partial = site.Partial || l != swept && cx.loops[l].rankDep
			}
			sites, pos = append(sites, site), append(pos, st.Target.Pos)
		}
	}
	scan(p.Body, pr.Everyone, false, nil)
	return sites, pos
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
			if v, ok := main.resolve(k).IsConst(); !ok || v != 1 {
				return false
			}
		}
		return true
	}
}

// lintPhaseRace reports phaserace's findings for every phase. A race is
// reported at the later write of the pair; an undecidable write is
// reported once, unless it is already part of a race.
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
			sites, pos := cx.phaseSites(p)
			inRace := make([]bool, len(sites))
			possible := make([]string, len(sites))
			seen := map[string]bool{}
			for _, fd := range pr.Check(pr.Phase{Sites: sites, SingleVP: single}) {
				i, j := fd.I, fd.J
				if fd.Verdict == pr.Possible {
					// Attribute the uncertainty to the write that caused
					// it: the non-affine side if only one is.
					at := j
					if sites[i].Dims[0].Form == pr.Unknown && sites[j].Dims[0].Form != pr.Unknown {
						at = i
					}
					if possible[at] == "" {
						possible[at] = fd.Why
					}
					continue
				}
				inRace[i], inRace[j] = true, true
				site := ""
				if i != j {
					site = fmt.Sprintf(" (with the write at line %d)", pos[i].Line)
				}
				key := fmt.Sprintf("o%d:%d", pos[i].Line, pos[j].Line)
				if !seen[key] {
					seen[key] = true
					diags = append(diags, Diag{
						Line: pos[j].Line, Col: pos[j].Col,
						Rule: "phaserace", Sev: SevWarning,
						Msg: fmt.Sprintf("VP instances of this phase write overlapping elements of %s%s: the end-of-phase commit cannot order them — make the index sets disjoint or use +=", sites[i].Array.(*SharedDecl).Name, site),
					})
				}
			}
			for k, reason := range possible {
				key := fmt.Sprintf("p%d", pos[k].Line)
				if reason == "" || inRace[k] || seen[key] {
					continue
				}
				seen[key] = true
				diags = append(diags, Diag{
					Line: pos[k].Line, Col: pos[k].Col,
					Rule: "phaserace.possible", Sev: SevWarning,
					Msg: fmt.Sprintf("cannot prove the VP write sets of %s disjoint: %s", sites[k].Array.(*SharedDecl).Name, reason),
				})
			}
		})
	}
	return diags
}
