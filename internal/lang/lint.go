package lang

import "fmt"

// This file holds the phase-semantics lint passes behind Analyze: the
// .ppm counterparts of the Go-side ppmvet rules. They work on the bare
// syntax tree (no type information needed), so they run even over
// programs the checker rejected.

// lintProgram runs every warning pass over prog.
func lintProgram(prog *Program) []Diag {
	consts := map[string]int64{}
	for _, d := range prog.Consts {
		if _, dup := consts[d.Name]; !dup {
			consts[d.Name] = d.Value
		}
	}
	shared := map[string]*SharedDecl{}
	for _, d := range prog.Shared {
		if _, dup := shared[d.Name]; !dup {
			shared[d.Name] = d
		}
	}

	var diags []Diag
	diags = append(diags, lintPhaseRace(prog, consts, shared)...)
	diags = append(diags, lintUnusedShared(prog)...)
	return diags
}

// rankDependent reports whether e mentions a VP- or node-identifying
// value, or the per-node vp_count (directly, or through a tainted local
// variable), so that its value differs between the VPs executing the
// phase.
func rankDependent(e Expr, tainted map[string]bool) bool {
	found := false
	walkExpr(e, func(x Expr) {
		switch v := x.(type) {
		case *Ident:
			switch v.Name {
			case "vp_node_rank", "vp_global_rank", "node_id", "vp_count":
				found = true
			default:
				if tainted[v.Name] {
					found = true
				}
			}
		case *Call:
			// Owned ranges differ per node.
			if v.Name == "my_lo" || v.Name == "my_hi" {
				found = true
			}
		}
	})
	return found
}

// taintedVars computes the variables of f whose value derives from a
// rank, iterating assignments to a fixed point so chains like
// `var i int = vp_node_rank; var j int = i * 2` are caught.
func taintedVars(f *FuncDecl) map[string]bool {
	tainted := map[string]bool{}
	for changed := true; changed; {
		changed = false
		mark := func(name string, dep bool) {
			if dep && !tainted[name] {
				tainted[name] = true
				changed = true
			}
		}
		walkStmt(f.Body, func(s Stmt) {
			switch st := s.(type) {
			case *VarDecl:
				if st.Init != nil {
					mark(st.Name, rankDependent(st.Init, tainted))
				}
			case *Assign:
				if st.Target.Index == nil {
					mark(st.Target.Name, rankDependent(st.Value, tainted))
				}
			case *For:
				mark(st.Var, rankDependent(st.Lo, tainted) || rankDependent(st.Hi, tainted))
			}
		})
	}
	return tainted
}

// lintUnusedShared flags shared arrays that no expression or
// assignment in the program ever touches.
func lintUnusedShared(prog *Program) []Diag {
	used := map[string]bool{}
	markExpr := func(e Expr) {
		walkExpr(e, func(x Expr) {
			switch v := x.(type) {
			case *Index:
				used[v.Name] = true
			case *Call:
				if (v.Name == "my_lo" || v.Name == "my_hi") && len(v.Args) == 1 {
					if id, ok := v.Args[0].(*Ident); ok {
						used[id.Name] = true
					}
				}
			}
		})
	}
	markStmt := func(s Stmt) {
		for _, e := range stmtExprs(s) {
			markExpr(e)
		}
		if a, ok := s.(*Assign); ok && a.Target.Index != nil {
			used[a.Target.Name] = true
		}
	}
	for _, f := range prog.Funcs {
		walkStmt(f.Body, markStmt)
	}
	walkStmt(prog.Main, markStmt)

	var diags []Diag
	for _, d := range prog.Shared {
		if used[d.Name] {
			continue
		}
		diags = append(diags, Diag{
			Line: d.Pos.Line, Col: d.Pos.Col,
			Rule: "unusedshared", Sev: SevWarning,
			Msg: fmt.Sprintf("shared array %q is declared but never used", d.Name),
		})
	}
	return diags
}
