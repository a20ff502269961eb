package lang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Severity classifies a diagnostic. Errors reject the program (Check
// fails, the interpreter and code generator refuse to run it); warnings
// flag phase-semantics hazards — code the runtime will execute but that
// violates the model's intent (VP writes that strict mode rejects as
// conflicting, reads of values that have not committed yet).
type Severity string

// Severities.
const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
)

// Diag is one positioned diagnostic produced by Analyze. Rule names the
// check that fired: a checker rule such as phasebound (errors), or a
// lint: phaserace and phaserace.possible, named as the Go-side ppmvet
// rule they share a solver with, and unusedshared.
type Diag struct {
	Line int      `json:"line"`
	Col  int      `json:"col"`
	Rule string   `json:"rule"`
	Sev  Severity `json:"severity"`
	Msg  string   `json:"message"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%d:%d: %s: %s [%s]", d.Line, d.Col, d.Sev, d.Msg, d.Rule)
}

// Analyze runs the semantic checker plus the phase-semantics lint
// passes over prog and returns every diagnostic, sorted by position.
// Unlike Check it does not stop at the first problem; unlike Check it
// also reports warnings. The lint passes work on the bare syntax tree,
// so hazards are still reported in programs that have type errors
// elsewhere (a broken fixture can show both its write-outside-phase
// error and its write race at once).
func Analyze(prog *Program) []Diag {
	c := newChecker(prog)
	c.run()
	diags := append(c.diags, lintProgram(prog)...)
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}

// exprString renders an expression in source syntax, for diagnostics
// and for comparing indices structurally (two accesses with the same
// rendering touch the same element when evaluated by the same VP).
func exprString(e Expr) string {
	switch ex := e.(type) {
	case *IntLit:
		return strconv.FormatInt(ex.Value, 10)
	case *FloatLit:
		return strconv.FormatFloat(ex.Value, 'g', -1, 64)
	case *BoolLit:
		return strconv.FormatBool(ex.Value)
	case *StrLit:
		return strconv.Quote(ex.Value)
	case *Ident:
		return ex.Name
	case *Index:
		return ex.Name + "[" + exprString(ex.Inner) + "]"
	case *Unary:
		return opText(ex.Op) + exprString(ex.X)
	case *Binary:
		return exprString(ex.L) + " " + opText(ex.Op) + " " + exprString(ex.R)
	case *Call:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = exprString(a)
		}
		return ex.Name + "(" + strings.Join(args, ", ") + ")"
	default:
		return "?"
	}
}

func opText(k Kind) string { return strings.Trim(k.String(), "'") }

// walkStmt visits s and every statement nested inside it, in source
// order.
func walkStmt(s Stmt, f func(Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch st := s.(type) {
	case *Block:
		for _, n := range st.Stmts {
			walkStmt(n, f)
		}
	case *If:
		walkStmt(st.Then, f)
		if st.Else != nil {
			walkStmt(st.Else, f)
		}
	case *While:
		walkStmt(st.Body, f)
	case *For:
		walkStmt(st.Body, f)
	case *Phase:
		walkStmt(st.Body, f)
	}
}

// walkExpr visits e and all of its subexpressions.
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch ex := e.(type) {
	case *Index:
		walkExpr(ex.Inner, f)
	case *Unary:
		walkExpr(ex.X, f)
	case *Binary:
		walkExpr(ex.L, f)
		walkExpr(ex.R, f)
	case *Call:
		for _, a := range ex.Args {
			walkExpr(a, f)
		}
	}
}

// stmtExprs returns the expressions a statement evaluates directly
// (not those belonging to nested statements).
func stmtExprs(s Stmt) []Expr {
	switch st := s.(type) {
	case *VarDecl:
		if st.Init != nil {
			return []Expr{st.Init}
		}
	case *Assign:
		var out []Expr
		if st.Target.Index != nil {
			out = append(out, st.Target.Index)
		}
		return append(out, st.Value)
	case *If:
		return []Expr{st.Cond}
	case *While:
		return []Expr{st.Cond}
	case *For:
		return []Expr{st.Lo, st.Hi}
	case *Do:
		return append([]Expr{st.K}, st.Args...)
	case *Print:
		return st.Args
	case *CallStmt:
		return []Expr{st.Call}
	}
	return nil
}
