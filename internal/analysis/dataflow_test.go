package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// checkSrc parses and type-checks one import-free file and returns the
// named top-level function.
func checkSrc(t *testing.T, src, fn string) (*token.FileSet, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("t", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fset, info, fd
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil, nil
}

// objNamed finds the object a function body declares under name.
func objNamed(info *types.Info, name string) types.Object {
	for id, obj := range info.Defs {
		if obj != nil && id.Name == name {
			return obj
		}
	}
	return nil
}

// useOf returns the position of the n-th use of name.
func useOf(t *testing.T, info *types.Info, obj types.Object, n int) token.Pos {
	t.Helper()
	var poss []token.Pos
	for id, o := range info.Uses {
		if o == obj {
			poss = append(poss, id.Pos())
		}
	}
	if len(poss) <= n {
		t.Fatalf("%s has %d uses, want index %d", obj.Name(), len(poss), n)
	}
	// Uses come from map order; sort by position.
	for i := range poss {
		for j := i + 1; j < len(poss); j++ {
			if poss[j] < poss[i] {
				poss[i], poss[j] = poss[j], poss[i]
			}
		}
	}
	return poss[n]
}

func TestReachingStraightLine(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f() int {
	x := 1
	y := x + 2
	return y
}`, "f")
	r := buildReaching(info, fd)
	x := objNamed(info, "x")
	d := r.uniqueDef(x, useOf(t, info, x, 0))
	if d == nil {
		t.Fatal("x has no unique def at its use")
	}
	rhs, _ := defRHS(info, d)
	if types.ExprString(rhs) != "1" {
		t.Errorf("unique def RHS = %s, want 1", types.ExprString(rhs))
	}
}

func TestReachingLoopRedefinition(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = x + 1
	}
	return x
}`, "f")
	r := buildReaching(info, fd)
	x := objNamed(info, "x")
	// At the return, both the initial def and the loop redefinition
	// reach: no unique def.
	if d := r.uniqueDef(x, useOf(t, info, x, 2)); d != nil {
		t.Errorf("x at return has unique def %v; loop redefinition must also reach", d)
	}
}

func TestReachingEarlyReturnKillsPath(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f(c bool) int {
	x := 1
	if c {
		x = 2
		return x
	}
	return x
}`, "f")
	r := buildReaching(info, fd)
	x := objNamed(info, "x")
	// The final return is only reached when the branch was not taken:
	// x = 2 returned early, so x := 1 is the unique def there. (Use 0
	// is the x = 2 target, use 1 the early return, use 2 the final.)
	d := r.uniqueDef(x, useOf(t, info, x, 2))
	if d == nil {
		t.Fatal("x at final return has no unique def; x = 2 path should have exited")
	}
	rhs, _ := defRHS(info, d)
	if types.ExprString(rhs) != "1" {
		t.Errorf("unique def RHS = %s, want 1", types.ExprString(rhs))
	}
}

func TestReachingSwitchArms(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f(c int) int {
	x := 1
	switch c {
	case 1:
		x = 2
	case 2:
		x = 3
	}
	return x
}`, "f")
	r := buildReaching(info, fd)
	x := objNamed(info, "x")
	if d := r.uniqueDef(x, useOf(t, info, x, 2)); d != nil {
		t.Errorf("x after switch has unique def %v; three defs reach the return", d)
	}
}

func TestReachingVarDeclaration(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f(c bool) int {
	var x = 1
	if c {
		x = 2
	}
	return x
}`, "f")
	r := buildReaching(info, fd)
	x := objNamed(info, "x")
	if d := r.uniqueDef(x, useOf(t, info, x, 1)); d != nil {
		rhs, _ := defRHS(info, d)
		t.Errorf("x at return has unique def %s; var x = 1 also reaches", types.ExprString(rhs))
	}
}

// TestReachingLabeledBranches walks nested labeled loops with break L
// and continue L, a switch with fallthrough and a select, and checks
// the exact defs that reach each probe. The walk must terminate with one
// def per (variable, site), however often a loop is walked again.
func TestReachingLabeledBranches(t *testing.T) {
	_, info, fd := checkSrc(t, `package t
func f(n int, ch chan int) int {
	v, b := 0, 0
Outer:
	for i := 0; i < n; i++ {
		w := 1
		for j := 0; j < n; j++ {
			switch j {
			case 1:
				w = 2
				continue Outer
			case 2:
				b = 1
				break Outer
			case 3:
				w = 6
				fallthrough
			case 4:
				v = w + 10
			}
			b = 2
			select {
			case <-ch:
				w = 4
			default:
				w = 7
			}
		}
		v = w
	}
	return v + b
}`, "f")
	r := buildReaching(info, fd)
	v, w, b := objNamed(info, "v"), objNamed(info, "w"), objNamed(info, "b")
	rhs := func(obj types.Object, use int) string {
		var out []string
		for _, d := range r.defsAt(obj, useOf(t, info, obj, use)) {
			e, _ := defRHS(info, d)
			out = append(out, types.ExprString(e))
		}
		slices.Sort(out)
		return strings.Join(out, "; ")
	}
	for _, c := range []struct {
		what string
		obj  types.Object
		use  int
		want string
	}{
		// continue Outer leaves w = 2 behind; fallthrough brings w = 6.
		{"w in the fallthrough case", w, 2, "1; 4; 6; 7"},
		{"w after the inner loop", w, 5, "1; 4; 7"},
		{"v at the return", v, 2, "0; w; w + 10"},
		// b = 1 leaves both loops, past b = 2.
		{"b at the return", b, 2, "0; 1; 2"},
	} {
		if got := rhs(c.obj, c.use); got != c.want {
			t.Errorf("%s: reaching defs %q, want %q", c.what, got, c.want)
		}
	}
	if n := len(r.byObj[w]); n != 5 {
		t.Errorf("w has %d defs, want one per site (5)", n)
	}
}
