package analysis

// Reaching definitions by one walk of a function body's syntax tree.
// Each definition is one (variable, site) pair: an assignment, a var
// declaration, an inc/dec, a range-loop head, or the function's own
// parameter list. The walk carries the definitions in force from
// statement to statement, joins them where control flow meets (after
// if, switch and select, at loop heads, and where break, continue and
// fallthrough land), runs each loop to a fixpoint and ends a path at
// return. It records, at each use of a variable, which of its
// definitions reach it, and at each function literal the whole state,
// which is what the affine resolver asks ("the unique def of `vlo`
// reaching this Write call is the ChunkRange multi-assign on line N").
// A body with a goto answers every query with all the variable's
// definitions instead of tracking labels.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// A def is one definition site of one object.
type def struct {
	obj types.Object
	// site is the defining node: *ast.AssignStmt, *ast.ValueSpec,
	// *ast.IncDecStmt, *ast.RangeStmt, or nil for the entry definition
	// of a parameter/receiver/free variable.
	site ast.Node
	// addressed marks conservative defs: the object's address was taken
	// or a nested function literal assigns it, so the value at this
	// point is unknown.
	addressed bool
}

// A state maps each variable to the definitions of it in force. Def
// slices are never changed in place, so copying a state is shallow. A
// nil state is an unreachable point.
type state map[types.Object][]*def

// join returns a's definitions together with b's, and whether b added
// any. Neither argument is changed.
func join(a, b state) (state, bool) {
	if a == nil {
		return b, b != nil
	}
	out, grew := a, false
	for obj, ds := range b {
		if u := joinDefs(out[obj], ds); len(u) > len(out[obj]) {
			if !grew {
				out, grew = maps.Clone(a), true
			}
			out[obj] = u
		}
	}
	return out, grew
}

// joinDefs is the union of two def sets.
func joinDefs(a, b []*def) []*def {
	for _, d := range b {
		if !slices.Contains(a, d) {
			a = append(slices.Clip(a), d)
		}
	}
	return a
}

type useKey struct {
	obj types.Object
	pos token.Pos
}

// reaching holds the walk's answers for one function body.
type reaching struct {
	info *types.Info
	// uses holds the defs reaching each use (or defining mention) of a
	// variable, and lits the state at each function literal of the body.
	uses map[useKey][]*def
	lits map[*ast.FuncLit]state
	// byObj lists every def of each object, one per (object, site).
	byObj map[types.Object][]*def
	// hasGoto makes every query answer byObj.
	hasGoto bool
}

// A target is where a break or continue lands: the state joined there.
type target struct {
	label     string
	loop      bool
	brk, cont state
}

// walker carries the state through one body.
type walker struct {
	*reaching
	cur     state
	targets []*target
	// label is set between a LabeledStmt and the statement it labels;
	// fall holds the state a fallthrough carries into the next clause.
	label string
	fall  state
}

// buildReaching walks one function: fn is the *ast.FuncDecl or
// *ast.FuncLit. Its receiver, parameters and named results get entry
// definitions, as does every variable the body uses that is declared
// outside fn (free variables are defined "elsewhere").
func buildReaching(info *types.Info, fn ast.Node) *reaching {
	r := &reaching{
		info:  info,
		uses:  map[useKey][]*def{},
		lits:  map[*ast.FuncLit]state{},
		byObj: map[types.Object][]*def{},
	}
	w := &walker{reaching: r, cur: state{}}
	var body *ast.BlockStmt
	var ftype *ast.FuncType
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body, ftype = f.Body, f.Type
		w.entryDefs(f.Recv)
	case *ast.FuncLit:
		body, ftype = f.Body, f.Type
	}
	w.entryDefs(ftype.Params)
	w.entryDefs(ftype.Results)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && (obj.Pos() < fn.Pos() || obj.Pos() >= fn.End()) {
				w.define(obj, nil, false)
			}
		case *ast.BranchStmt:
			r.hasGoto = r.hasGoto || x.Tok == token.GOTO
		}
		return true
	})
	w.stmts(body.List)
	return r
}

func (w *walker) entryDefs(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		for _, name := range field.Names {
			w.define(w.info.Defs[name], nil, false)
		}
	}
}

// objOf returns the variable an identifier names, or nil for a field,
// a blank or a non-variable.
func (r *reaching) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := r.info.Defs[id]
	if obj == nil {
		obj = r.info.Uses[id]
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return nil
	}
	return obj
}

// define puts the def of obj at site in force, alone. The def is made
// once per (object, site): a loop walked again reuses it.
func (w *walker) define(obj types.Object, site ast.Node, addressed bool) {
	if obj == nil || w.cur == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return
	}
	var d *def
	for _, x := range w.byObj[obj] {
		if x.site == site {
			d = x
		}
	}
	if d == nil {
		d = &def{obj: obj, site: site}
		w.byObj[obj] = append(w.byObj[obj], d)
	}
	d.addressed = d.addressed || addressed
	w.cur = maps.Clone(w.cur)
	w.cur[obj] = []*def{d}
}

// simple walks one simple statement, var spec or control expression:
// it records the defs reaching each variable it mentions, then puts in
// force the defs it makes, and last the conservative ones of an
// address taken or a variable a function literal in it assigns.
func (w *walker) simple(n ast.Node) {
	if n == nil || w.cur == nil {
		return
	}
	var conservative []types.Object
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if obj := w.objOf(x); obj != nil {
				k := useKey{obj, x.Pos()}
				w.uses[k] = joinDefs(w.uses[k], w.cur[obj])
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				conservative = append(conservative, recvRoot(w.info, x.X))
			}
		case *ast.FuncLit:
			w.lits[x], _ = join(w.lits[x], w.cur)
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				var lhs []ast.Expr
				switch st := inner.(type) {
				case *ast.AssignStmt:
					lhs = st.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{st.X}
				}
				for _, e := range lhs {
					if obj := w.objOf(e); obj != nil && (obj.Pos() < x.Pos() || obj.Pos() >= x.End()) {
						conservative = append(conservative, obj)
					}
				}
				return true
			})
			return false
		}
		return true
	})
	switch st := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			w.define(w.objOf(lhs), st, false)
		}
	case *ast.IncDecStmt:
		w.define(w.objOf(st.X), st, true) // value = old+1: treat as opaque
	case *ast.ValueSpec:
		for _, name := range st.Names {
			w.define(w.objOf(name), st, false)
		}
	}
	for _, obj := range conservative {
		w.define(obj, n, true)
	}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// push opens the break (and, for a loop, continue) target of a
// statement, under the label that names it, if any.
func (w *walker) push(label string, loop bool) *target {
	t := &target{label: label, loop: loop}
	w.targets = append(w.targets, t)
	return t
}

func (w *walker) pop() { w.targets = w.targets[:len(w.targets)-1] }

// branch joins the current state into the target a break or continue
// names, and ends the path.
func (w *walker) branch(label *ast.Ident, cont bool) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if label == nil && (t.loop || !cont) || label != nil && t.label == label.Name {
			if cont {
				t.cont, _ = join(t.cont, w.cur)
			} else {
				t.brk, _ = join(t.brk, w.cur)
			}
			break
		}
	}
	w.cur = nil
}

// loop runs one pass of a loop body (iter) from the loop head until the
// state at the head stops growing, and returns the head state.
func (w *walker) loop(iter func()) state {
	head := w.cur
	for {
		w.cur = head
		iter()
		var grew bool
		if head, grew = join(head, w.cur); !grew {
			return head
		}
	}
}

func (w *walker) stmt(s ast.Stmt) {
	label := w.label
	w.label = ""
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.stmts(st.List)

	case *ast.LabeledStmt:
		if w.cur == nil && w.hasGoto {
			w.cur = state{} // reached by a goto: walk it for its defs
		}
		w.label = st.Label.Name
		w.stmt(st.Stmt)

	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				w.simple(spec)
			}
		}

	case *ast.IfStmt:
		w.simple(st.Init)
		w.simple(st.Cond)
		head := w.cur
		w.stmt(st.Body)
		then := w.cur
		w.cur = head
		if st.Else != nil {
			w.stmt(st.Else)
		}
		w.cur, _ = join(then, w.cur)

	case *ast.ForStmt:
		w.simple(st.Init)
		t := w.push(label, true)
		var exit state
		w.loop(func() {
			w.simple(st.Cond)
			if st.Cond != nil {
				exit = w.cur
			}
			w.stmt(st.Body)
			w.cur, _ = join(w.cur, t.cont)
			w.simple(st.Post)
		})
		w.pop()
		w.cur, _ = join(exit, t.brk)

	case *ast.RangeStmt:
		w.simple(st.X)
		t := w.push(label, true)
		head := w.loop(func() {
			w.simple(st.Key)
			w.simple(st.Value)
			for _, e := range []ast.Expr{st.Key, st.Value} {
				w.define(w.objOf(e), st, false)
			}
			w.stmt(st.Body)
			w.cur, _ = join(w.cur, t.cont)
		})
		w.pop()
		w.cur, _ = join(head, t.brk)

	case *ast.SwitchStmt:
		w.simple(st.Init)
		w.simple(st.Tag)
		w.clauses(label, st.Body)

	case *ast.TypeSwitchStmt:
		w.simple(st.Init)
		w.simple(st.Assign)
		w.clauses(label, st.Body)

	case *ast.SelectStmt:
		w.clauses(label, st.Body)

	case *ast.ReturnStmt:
		w.simple(st)
		w.cur = nil

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK, token.CONTINUE:
			w.branch(st.Label, st.Tok == token.CONTINUE)
		case token.FALLTHROUGH:
			w.fall = w.cur
		}
		w.cur = nil

	default:
		w.simple(st)
	}
}

// clauses walks the case or comm clauses of a switch or select: each
// starts from the head state (and a case from the state a fallthrough
// carries), and they join after the statement. A switch without a
// default also leaves from its head.
func (w *walker) clauses(label string, body *ast.BlockStmt) {
	head := w.cur
	t := w.push(label, false)
	var out state
	exhaustive := false
	for _, c := range body.List {
		w.cur = head
		switch cc := c.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cc.List == nil
			for _, e := range cc.List {
				w.simple(e)
			}
			w.cur, _ = join(w.cur, w.fall)
			w.fall = nil
			w.stmts(cc.Body)
		case *ast.CommClause:
			exhaustive = true
			if cc.Comm != nil {
				w.stmt(cc.Comm)
			}
			w.stmts(cc.Body)
		}
		out, _ = join(out, w.cur)
	}
	w.pop()
	if !exhaustive {
		out, _ = join(out, head)
	}
	w.cur, _ = join(out, t.brk)
}

// defsAt returns the definitions of obj that can reach the use at pos:
// the ones recorded at that use, or, for a position inside a function
// literal of the body, the ones in force at the literal.
func (r *reaching) defsAt(obj types.Object, pos token.Pos) []*def {
	if r.hasGoto {
		return r.byObj[obj]
	}
	if ds, ok := r.uses[useKey{obj, pos}]; ok {
		return ds
	}
	for lit, st := range r.lits {
		if lit.Pos() <= pos && pos < lit.End() {
			return st[obj]
		}
	}
	return nil
}

// uniqueDef returns the single non-conservative definition of obj
// reaching pos, or nil when there are zero, several, or only
// conservative ones. This is the workhorse of affine resolution: an
// index variable with one reaching def can be rewritten as its RHS.
func (r *reaching) uniqueDef(obj types.Object, pos token.Pos) *def {
	ds := r.defsAt(obj, pos)
	if len(ds) != 1 || ds[0].addressed {
		return nil
	}
	return ds[0]
}

// defRHS extracts the expression assigned to obj by d, for defs that
// bind obj directly to one expression: `x := e`, `x = e`, `var x = e`,
// and the i-th position of a balanced multi-assign. Multi-value calls
// (x, y := f()) return (nil, idx) with idx = obj's position on the LHS,
// letting callers special-case known functions like ChunkRange.
func defRHS(info *types.Info, d *def) (rhs ast.Expr, lhsIdx int) {
	lhsIdx = -1
	switch site := d.site.(type) {
	case *ast.AssignStmt:
		for i, lhs := range site.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == d.obj {
				lhsIdx = i
				break
			}
		}
		if lhsIdx < 0 {
			return nil, -1
		}
		if len(site.Rhs) == len(site.Lhs) {
			if site.Tok == token.ASSIGN || site.Tok == token.DEFINE {
				return site.Rhs[lhsIdx], lhsIdx
			}
			return nil, lhsIdx // op-assign: value is old op rhs
		}
		return nil, lhsIdx // multi-value call
	case *ast.ValueSpec:
		for i, name := range site.Names {
			if info.Defs[name] == d.obj {
				lhsIdx = i
				break
			}
		}
		if lhsIdx >= 0 && len(site.Values) == len(site.Names) {
			return site.Values[lhsIdx], lhsIdx
		}
		return nil, lhsIdx
	}
	return nil, -1
}
