package analysis_test

// The phase checkers scored against the runtime. StrictWrites is the
// only ground truth for "two VPs of one phase write one element": this
// file labels a mutant corpus with it and records what both static
// front ends (`ppmc check`, i.e. lang.Analyze, and ppmvet on the Go
// `ppmc emit` produces) say about the same programs.

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"ppm"
	"ppm/internal/analysis"
	shapes "ppm/internal/analysis/testdata/src/phaserace"
	"ppm/internal/core"
	"ppm/internal/lang"
	"ppm/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle.golden from this run")

// oracleBases are the oracle-clean .ppm programs the corpus mutates.
var oracleBases = []string{
	"../../examples/language/cg.ppm",
	"../../examples/language/histogram.ppm",
	"../../examples/language/search.ppm",
	"../lang/testdata/clean.ppm",
}

// oracleShrink caps constants that only bound how long a base runs:
// cg.ppm runs every phase in its first iteration.
var oracleShrink = map[string]int64{"MAXIT": 2}

// A site is one shared-array assignment inside a phase of function fn.
type site struct {
	fn    string
	block *lang.Block
	i     int
}

func (s site) assign() *lang.Assign { return s.block.Stmts[s.i].(*lang.Assign) }

// eachStmt calls f on every statement under b, in source order, with
// the block that holds it and whether a phase encloses it.
func eachStmt(b *lang.Block, inPhase bool, f func(b *lang.Block, i int, inPhase bool)) {
	for i, s := range b.Stmts {
		f(b, i, inPhase)
		switch st := s.(type) {
		case *lang.Block:
			eachStmt(st, inPhase, f)
		case *lang.If:
			eachStmt(st.Then, inPhase, f)
			if st.Else != nil {
				eachStmt(st.Else, inPhase, f)
			}
		case *lang.While:
			eachStmt(st.Body, inPhase, f)
		case *lang.For:
			eachStmt(st.Body, inPhase, f)
		case *lang.Phase:
			eachStmt(st.Body, true, f)
		}
	}
}

func phaseSites(prog *lang.Program) []site {
	var out []site
	for _, fn := range prog.Funcs {
		eachStmt(fn.Body, false, func(b *lang.Block, i int, inPhase bool) {
			if a, ok := b.Stmts[i].(*lang.Assign); ok && inPhase && a.Target.Index != nil {
				out = append(out, site{fn.Name, b, i})
			}
		})
	}
	return out
}

func doStmts(prog *lang.Program) []*lang.Do {
	var out []*lang.Do
	eachStmt(prog.Main, false, func(b *lang.Block, i int, _ bool) {
		if d, ok := b.Stmts[i].(*lang.Do); ok {
			out = append(out, d)
		}
	})
	return out
}

// The mutation operators (microsmith-style: one small, typed rewrite
// of the AST at one write site).
type mutation func(prog *lang.Program, s site)

// constIndex makes every VP write element 0.
func constIndex(_ *lang.Program, s site) {
	a := s.assign()
	a.Target.Index = &lang.IntLit{Value: 0, Pos: a.Target.Pos}
}

// halo adds a second write of the value at index + 1, the neighbouring
// VP's element; the array gets one spare element so it stays in range.
func halo(prog *lang.Program, s site) {
	a := s.assign()
	next := &lang.Assign{Value: a.Value, Pos: a.Pos, Target: &lang.LValue{
		Name: a.Target.Name, Pos: a.Target.Pos,
		Index: &lang.Binary{Op: lang.PLUS, L: a.Target.Index, R: &lang.IntLit{Value: 1}, Pos: a.Pos},
	}}
	s.block.Stmts = slices.Insert(s.block.Stmts, s.i+1, lang.Stmt(next))
	for _, d := range prog.Shared {
		if d.Name == a.Target.Name {
			d.Size = &lang.Binary{Op: lang.PLUS, L: d.Size, R: &lang.IntLit{Value: 1}, Pos: d.Pos}
		}
	}
}

// rankGuard wraps the write in `if (rank op c)`.
func rankGuard(rank string, op lang.Kind, c int64) mutation {
	return func(_ *lang.Program, s site) {
		a := s.assign()
		cond := &lang.Binary{Op: op, L: &lang.Ident{Name: rank, Pos: a.Pos}, R: &lang.IntLit{Value: c, Pos: a.Pos}, Pos: a.Pos}
		s.block.Stmts[s.i] = &lang.If{Cond: cond, Then: &lang.Block{Stmts: []lang.Stmt{a}, Pos: a.Pos}, Pos: a.Pos}
	}
}

// rankTrip wraps the write in `for t = 0 to 1 - vp_node_rank`: only
// each node's VP 0 runs it, once.
func rankTrip(_ *lang.Program, s site) {
	a := s.assign()
	hi := &lang.Binary{Op: lang.MINUS, L: &lang.IntLit{Value: 1, Pos: a.Pos}, R: &lang.Ident{Name: "vp_node_rank", Pos: a.Pos}, Pos: a.Pos}
	s.block.Stmts[s.i] = &lang.For{Var: "t", Lo: &lang.IntLit{Pos: a.Pos}, Hi: hi, Body: &lang.Block{Stmts: []lang.Stmt{a}, Pos: a.Pos}, Pos: a.Pos}
}

// singleVP starts every VP of the site's function with do (1).
func singleVP(prog *lang.Program, s site) {
	for _, d := range doStmts(prog) {
		if d.Name == s.fn {
			d.K = &lang.IntLit{Value: 1, Pos: d.Pos}
		}
	}
}

func both(a, b mutation) mutation {
	return func(prog *lang.Program, s site) { a(prog, s); b(prog, s) }
}

var siteOps = []struct {
	name  string
	apply mutation
}{
	{"const", constIndex},
	{"index+1", halo},
	{"gr==0", rankGuard("vp_global_rank", lang.EQ, 0)},
	{"nr==0", rankGuard("vp_node_rank", lang.EQ, 0)},
	{"gr<2", rankGuard("vp_global_rank", lang.LT, 2)},
	{"const+gr==0", both(constIndex, rankGuard("vp_global_rank", lang.EQ, 0))},
	{"const+nr==0", both(constIndex, rankGuard("vp_node_rank", lang.EQ, 0))},
	{"const+gr<2", both(constIndex, rankGuard("vp_global_rank", lang.LT, 2))},
	{"const+do1", both(constIndex, singleVP)},
	{"nr-loop", rankTrip},
	{"const+nr-loop", both(constIndex, rankTrip)},
}

// doOps rewrite the K of one `do`: one VP per node, and a different K
// on every node (the paper's asynchronous mode).
var doOps = []struct {
	name string
	k    func(pos lang.Token) lang.Expr
}{
	{"do1", func(pos lang.Token) lang.Expr { return &lang.IntLit{Value: 1, Pos: pos} }},
	{"k=node+1", func(pos lang.Token) lang.Expr {
		return &lang.Binary{Op: lang.PLUS, L: &lang.Ident{Name: "node_id", Pos: pos}, R: &lang.IntLit{Value: 1, Pos: pos}, Pos: pos}
	}},
}

type mutant struct {
	name string // base:line/operator
	prog *lang.Program
}

// oracleMutants builds the corpus: each base unchanged, every operator
// at every phase write site, and every do operator at each `do`. A combining +=
// never conflicts, so at a += site the operators rewrite the plain
// write it becomes (add=write, alone or first).
func oracleMutants(t *testing.T) []mutant {
	var out []mutant
	for _, path := range oracleBases {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		parse := func() *lang.Program {
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, c := range prog.Consts {
				if v, ok := oracleShrink[c.Name]; ok {
					c.Value = v
				}
			}
			return prog
		}
		out = append(out, mutant{base + "/base", parse()})
		for k, s := range phaseSites(parse()) {
			at := fmt.Sprintf("%s:%d/", base, s.assign().Target.Pos.Line)
			for i := -1; i < len(siteOps); i++ {
				prog := parse()
				s := phaseSites(prog)[k]
				var name []string
				if a := s.assign(); a.Add {
					a.Add = false
					name = append(name, "add=write")
				} else if i < 0 {
					continue // the base itself
				}
				if i >= 0 {
					siteOps[i].apply(prog, s)
					name = append(name, siteOps[i].name)
				}
				out = append(out, mutant{at + strings.Join(name, "+"), prog})
			}
		}
		for k, d := range doStmts(parse()) {
			for _, op := range doOps {
				prog := parse()
				doStmts(prog)[k].K = op.k(d.Pos)
				out = append(out, mutant{fmt.Sprintf("%s:%d/%s", base, d.Pos.Line, op.name), prog})
			}
		}
	}
	return out
}

// loadGo writes each source as its own package under a temporary
// directory in testdata and loads them all with one go list.
func loadGo(t *testing.T, srcs []string) []*analysis.Package {
	dir, err := os.MkdirTemp("testdata", "emitted")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	patterns := make([]string, len(srcs))
	for i, src := range srcs {
		p := filepath.Join(dir, fmt.Sprintf("m%03d", i))
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		patterns[i] = "./" + filepath.ToSlash(p)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*analysis.Package, len(srcs))
	for _, p := range pkgs {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(p.Dir), "m%d", &i); err == nil && i < len(out) {
			out[i] = p
		}
	}
	for i, p := range out {
		if p == nil {
			t.Fatalf("go list did not return package %s", patterns[i])
		}
	}
	return out
}

// A verdict row: one mutant and one array that the runtime or either
// front end says something about.
type oracleRow struct {
	mutant, array string
	strict        string  // per node count 1, 2, 3: the digit on a conflict, else '.'
	ppmc, ppmvet  [2]bool // phaserace, phaserace.possible
}

func (r oracleRow) conflict() bool { return r.strict != "..." }

func findings(f [2]bool) string {
	var parts []string
	if f[0] {
		parts = append(parts, "race")
	}
	if f[1] {
		parts = append(parts, "possible")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// vetArray names the (unprefixed) array a ppmvet phaserace message is
// about.
var vetArray = regexp.MustCompile(`(?:elements|write sets) of u_(\w+)`)

// judge labels each mutant with StrictWrites at 1-3 nodes and records
// both front ends' phaserace findings per array.
func judge(t *testing.T, ms []mutant) []oracleRow {
	srcs := make([]string, len(ms))
	for i, m := range ms {
		var err error
		if srcs[i], err = lang.GenerateGo(m.prog); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	pkgs := loadGo(t, srcs)
	var rows []oracleRow
	for i, m := range ms {
		arrays := map[string]*oracleRow{}
		at := func(name string) *oracleRow {
			if arrays[name] == nil {
				arrays[name] = &oracleRow{mutant: m.name, array: name, strict: "..."}
			}
			return arrays[name]
		}
		for n := 1; n <= 3; n++ {
			rep, err := lang.Interpret(m.prog, core.Options{Nodes: n, StrictWrites: true, Machine: machine.Generic()}, nil)
			if err != nil && !strings.Contains(err.Error(), "conflicting writes") {
				t.Fatalf("%s at %d nodes: %v", m.name, n, err)
			}
			for _, c := range rep.Conflicts {
				r := at(c.Array)
				r.strict = r.strict[:n-1] + fmt.Sprint(n) + r.strict[n:]
			}
		}
		arrayAt := map[int]string{}
		for _, fn := range m.prog.Funcs {
			eachStmt(fn.Body, false, func(b *lang.Block, i int, _ bool) {
				if a, ok := b.Stmts[i].(*lang.Assign); ok && a.Target.Index != nil {
					arrayAt[a.Target.Pos.Line] = a.Target.Name
				}
			})
		}
		for _, d := range lang.Analyze(m.prog) {
			if d.Rule == "phaserace" || d.Rule == "phaserace.possible" {
				at(arrayAt[d.Line]).ppmc[boolIndex(d.Rule == "phaserace.possible")] = true
			}
		}
		diags, err := analysis.Run([]*analysis.Package{pkgs[i]}, []*analysis.Analyzer{analysis.PhaseRaceAnalyzer})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, d := range diags {
			name := "?"
			if sm := vetArray.FindStringSubmatch(d.Message); sm != nil {
				name = sm[1]
			}
			at(name).ppmvet[boolIndex(d.Rule == "phaserace.possible")] = true
		}
		if len(arrays) == 0 {
			at("-")
		}
		var names []string
		for name := range arrays {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows = append(rows, *arrays[name])
		}
	}
	return rows
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// oracleScore counts, per front end and rule, the conflicting rows a
// rule caught and missed and the clean rows it fired on.
func oracleScore(rows []oracleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-20s %6s %6s %12s\n", "front", "rule", "caught", "missed", "false-alarm")
	for _, fe := range []string{"ppmc", "ppmvet"} {
		for ri, rule := range []string{"phaserace", "phaserace.possible", "either"} {
			var caught, missed, falseAlarm int
			for _, r := range rows {
				f := r.ppmc
				if fe == "ppmvet" {
					f = r.ppmvet
				}
				fired := ri < 2 && f[ri] || ri == 2 && (f[0] || f[1])
				switch {
				case r.conflict() && fired:
					caught++
				case r.conflict():
					missed++
				case fired:
					falseAlarm++
				}
			}
			fmt.Fprintf(&b, "%-8s %-20s %6d %6d %12d\n", fe, rule, caught, missed, falseAlarm)
		}
	}
	disagree := 0
	for _, r := range rows {
		if r.ppmc != r.ppmvet {
			disagree++
		}
	}
	fmt.Fprintf(&b, "rows where ppmc and ppmvet disagree: %d\n", disagree)
	return b.String()
}

// oracleDisagree lists the rows ("mutant array") on which ppmc and
// ppmvet may give different findings. Both lower to one phaserace
// solver, so an entry is a named lowering difference: it needs a
// one-line reason here and a unit test of its own.
var oracleDisagree = map[string]string{}

// TestOracleTable builds the mutant corpus, labels it with StrictWrites
// and checks the verdict table against testdata/oracle.golden (-update
// rewrites it). It also holds the guard rule to the runtime: on every
// mutant, no definite phaserace fires where the runtime is clean, and
// every conflict draws a phaserace finding, in both front ends. The
// front ends must agree on every row oracleDisagree does not name.
// `make vet-score` prints the score.
func TestOracleTable(t *testing.T) {
	rows := judge(t, oracleMutants(t))
	var b strings.Builder
	b.WriteString("# Phase checkers against StrictWrites (TestOracleTable; go test -run TestOracleTable -update rewrites this file).\n")
	b.WriteString("# strict: per node count 1, 2, 3, the digit where the runtime reports a conflict on the array, else '.'.\n")
	b.WriteString("# ppmc, ppmvet: phaserace (race) and phaserace.possible (possible) findings on the array.\n")
	fmt.Fprintf(&b, "%-40s %-12s %-6s %-14s %s\n", "mutant", "array", "strict", "ppmc", "ppmvet")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %-12s %-6s %-14s %s\n", r.mutant, r.array, r.strict, findings(r.ppmc), findings(r.ppmvet))
		if _, excused := oracleDisagree[r.mutant+" "+r.array]; excused != (r.ppmc != r.ppmvet) {
			t.Errorf("%s %s: ppmc %s, ppmvet %s, listed in oracleDisagree = %v", r.mutant, r.array, findings(r.ppmc), findings(r.ppmvet), excused)
		}
		for fe, f := range map[string][2]bool{"ppmc": r.ppmc, "ppmvet": r.ppmvet} {
			if !r.conflict() && f[0] {
				t.Errorf("%s %s: %s reports a definite phaserace, the runtime is clean", r.mutant, r.array, fe)
			}
			if r.conflict() && !f[0] && !f[1] {
				t.Errorf("%s %s: the runtime conflicts (%s), %s reports nothing", r.mutant, r.array, r.strict, fe)
			}
		}
	}
	score := oracleScore(rows)
	b.WriteString("\n" + score)
	t.Logf("phase checkers against StrictWrites, %d rows:\n%s", len(rows), score)

	const golden = "testdata/oracle.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d (rerun with -update if the change is meant):\n got: %q\nwant: %q",
					golden, i+1, lineAt(gl, i), lineAt(wl, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// TestEmittedGoTypeChecks: every .ppm program in the repository that
// lang.Check accepts translates to Go that loads without type errors.
func TestEmittedGoTypeChecks(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../lang/testdata/*.ppm", "../../examples/language/*.ppm"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	var names, srcs []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil || lang.Check(prog) != nil {
			continue
		}
		out, err := lang.GenerateGo(prog)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		names, srcs = append(names, f), append(srcs, out)
	}
	if len(srcs) < 6 {
		t.Fatalf("only %d programs pass lang.Check", len(srcs))
	}
	for i, p := range loadGo(t, srcs) {
		for _, err := range p.Errors {
			t.Errorf("%s: emitted Go: %v", names[i], err)
		}
	}
}

// TestPhaseRaceShapesMatchRuntime runs each guard, K = 1 and trip-count
// shape of the phaserace fixture under StrictWrites at 1-3 nodes: a
// shape the runtime finds a conflict in carries a // want line, and a
// definite (`overlapping elements`) want is only on a shape the runtime
// finds one in.
func TestPhaseRaceShapesMatchRuntime(t *testing.T) {
	progs := map[string]func(*ppm.Runtime){
		"GuardNodeRankGlobal": shapes.GuardNodeRankGlobal,
		"GuardGlobalRank":     shapes.GuardGlobalRank,
		"GuardNodeRankNode":   shapes.GuardNodeRankNode,
		"GuardRankRange":      shapes.GuardRankRange,
		"SingleVPHelper":      shapes.SingleVPHelper,
		"TripRankFor":         shapes.TripRankFor,
		"TripRankWhile":       shapes.TripRankWhile,
		"TripRankVar":         shapes.TripRankVar,
	}
	f, err := parser.ParseFile(token.NewFileSet(), "testdata/src/phaserace/phaserace.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || progs[fd.Name.Name] == nil {
			continue
		}
		want, definite := false, false
		for _, c := range f.Comments {
			if fd.Pos() < c.Pos() && c.End() < fd.End() && strings.Contains(c.Text(), "want `") {
				want = true
				definite = definite || strings.Contains(c.Text(), "want `overlapping")
			}
		}
		conflict := false
		for n := 1; n <= 3; n++ {
			rep, err := ppm.Run(ppm.Options{Nodes: n, StrictWrites: true}, progs[fd.Name.Name])
			if err != nil && len(rep.Conflicts) == 0 {
				t.Fatalf("%s at %d nodes: %v", fd.Name.Name, n, err)
			}
			conflict = conflict || len(rep.Conflicts) > 0
		}
		if conflict && !want || definite && !conflict {
			t.Errorf("%s: // want present = %v (definite %v), StrictWrites conflict at 1-3 nodes = %v", fd.Name.Name, want, definite, conflict)
		}
		delete(progs, fd.Name.Name)
	}
	for name := range progs {
		t.Errorf("shape %s not found in the fixture", name)
	}
}
