package analysis_test

// ppmvet's Go rules scored against the runtime's two checks. This file
// plants one hazard at a time in the example programs, with a harmless
// twin beside each, and records what every rule says, whether a
// `go run -race` reports the mutant (host state touched from VP code)
// and whether a StrictWrites run does (a stale read, a write through a
// retained Local slice). TestOracleTable scores phaserace against
// StrictWrites on a corpus of its own.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppm/internal/analysis"
)

// A goBase is one example program and the values its size constants
// shrink to, so that a -race run of a mutant takes about a second.
type goBase struct {
	name   string
	shrink map[string]int64
}

// A goOp plants one update in a base's VP code.
type goOp struct {
	name string
	// hazard: the update races between VP instances, bypasses the phase
	// discipline, or reads back its own update in one phase. A twin makes
	// the same accesses safely.
	hazard bool
	plant  func(s *goSite)
}

// goMutantConf selects the bases and operators of the table, as
// microsmith's ProgramConf selects the shape of the programs it
// generates.
type goMutantConf struct {
	bases []goBase
	ops   []goOp
}

var goConf = goMutantConf{
	bases: []goBase{
		{"quickstart", map[string]int64{"n": 1 << 10, "k": 16, "nodes": 2}},
		{"asynchronous", map[string]int64{"nodes": 2}},
		{"cg", map[string]int64{"nx": 6, "ny": 6, "nz": 6, "nodes": 2}},
		{"jacobi", map[string]int64{"nx": 6, "ny": 6, "nz": 4, "nodes": 2, "sweeps": 2}},
		{"nbody", map[string]int64{"nBodies": 64, "nodes": 2, "steps": 1}},
		{"pagerank", map[string]int64{"nVerts": 256, "nodes": 2, "iters": 2}},
	},
	ops: []goOp{
		{"host", true, func(s *goSite) { s.hostVar(); s.vp("mutHits++") }},
		{"host+serial", false, func(s *goSite) { s.hostVar(); s.vp(s.rt + ".Serial(func() { mutHits++ })") }},
		{"package", true, func(s *goSite) { s.decl("var mutHits int"); s.vp("mutHits++") }},
		{"package+serial", false, func(s *goSite) { s.decl("var mutHits int"); s.vp(s.rt + ".Serial(func() { mutHits++ })") }},
		{"helper", true, func(s *goSite) { s.hostVar(); s.bump(); s.vp("mutBump(&mutHits)") }},
		{"helper+serial", false, func(s *goSite) {
			s.hostVar()
			s.bump()
			s.vp(s.rt + ".Serial(func() { mutBump(&mutHits) })")
		}},
		{"local-write", true, func(s *goSite) { s.localSlice(); s.vp("mutLocal[" + s.vpName + ".NodeRank()]++") }},
		{"local-read", false, func(s *goSite) { s.localSlice(); s.vp("_ = mutLocal[" + s.vpName + ".NodeRank()]") }},
		{"stale-read", true, func(s *goSite) { s.staleArray(); s.phase(s.mutStale("Write") + "\n" + s.mutStale("Read")) }},
		{"read-first", false, func(s *goSite) { s.staleArray(); s.phase(s.mutStale("Read") + "\n" + s.mutStale("Write")) }},
	},
}

// A goSite is one parsed base with the places an operator plants into:
// the host program passed to ppm.Run and its first Do's VP function.
type goSite struct {
	file   *ast.File
	host   *ast.BlockStmt
	run    *ast.CallExpr // the ppm.Run call the host program is passed to
	rt     string        // the host program's *Runtime parameter
	vpBody *ast.BlockStmt
	vpName string         // the VP function's *VP parameter
	phBody *ast.BlockStmt // the body of the VP function's first phase
}

func parseStmts(src string) []ast.Stmt {
	f, err := parser.ParseFile(token.NewFileSet(), "", "package p; func _() {\n"+src+"\n}", 0)
	if err != nil {
		panic(fmt.Sprintf("%q: %v", src, err))
	}
	return f.Decls[0].(*ast.FuncDecl).Body.List
}

// vp makes src the VP function's first statement.
func (s *goSite) vp(src string) {
	s.vpBody.List = append(parseStmts(src), s.vpBody.List...)
}

// hostVar declares the counter mutHits at the top of the host program.
func (s *goSite) hostVar() {
	s.host.List = append(parseStmts("mutHits := 0\n_ = mutHits"), s.host.List...)
}

// decl adds a package-level declaration.
func (s *goSite) decl(src string) {
	f, err := parser.ParseFile(token.NewFileSet(), "", "package p\n"+src, 0)
	if err != nil {
		panic(err)
	}
	s.file.Decls = append(s.file.Decls, f.Decls...)
}

// bump declares a helper that stores through its pointer parameter.
func (s *goSite) bump() { s.decl("func mutBump(c *int) { *c++ }") }

// localSlice allocates a Node array of the mutant's own at the top of
// the host program and takes its Local slice there, before any Do.
// Nothing else touches the array, so a VP's update of its own element
// through the slice is the only access to that element: an update
// through the slice into one of the program's arrays may race with
// another VP's read of the same element, which -race sees in some runs
// and not in others.
func (s *goSite) localSlice() {
	s.host.List = append(parseStmts("mutLocal := ppm.AllocNode[float64]("+s.rt+", \"mutLocal\", 1024).Local("+s.rt+")\n_ = mutLocal"), s.host.List...)
}

// staleArray allocates a Node array of the mutant's own at the top of
// the host program, for the VPs to write and read their own elements.
func (s *goSite) staleArray() {
	s.host.List = append(parseStmts("mutStale := ppm.AllocNode[float64]("+s.rt+", \"mutStale\", 1024)\n_ = mutStale"), s.host.List...)
}

// mutStale is a VP's Write or Read of its own element of mutStale.
func (s *goSite) mutStale(op string) string {
	if op == "Write" {
		return "mutStale.Write(" + s.vpName + ", " + s.vpName + ".NodeRank(), 1)"
	}
	return "_ = mutStale.Read(" + s.vpName + ", " + s.vpName + ".NodeRank())"
}

// phase makes src the first statements of the VP function's first phase.
func (s *goSite) phase(src string) {
	s.phBody.List = append(parseStmts(src), s.phBody.List...)
}

// parseSite parses base's main.go, shrinks its size constants and finds
// the planting places.
func parseSite(t *testing.T, b goBase) *goSite {
	path := filepath.Join("../../examples", b.name, "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &goSite{file: f}
	shrunk := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if v, ok := b.shrink[name.Name]; ok && i < len(x.Values) {
					x.Values[i] = &ast.BasicLit{Kind: token.INT, Value: fmt.Sprint(v)}
					shrunk++
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && s.host == nil && sel.Sel.Name == "Run" && len(x.Args) == 2 {
				if lit, ok := x.Args[1].(*ast.FuncLit); ok {
					s.host, s.run, s.rt = lit.Body, x, lit.Type.Params.List[0].Names[0].Name
				}
			}
		}
		return true
	})
	if shrunk != len(b.shrink) || s.host == nil {
		t.Fatalf("%s: shrank %d of %d constants, host program found: %v", path, shrunk, len(b.shrink), s.host != nil)
	}
	var vpLit *ast.FuncLit
	bound := map[string]*ast.FuncLit{}
	ast.Inspect(s.host, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if id, ok := x.Lhs[0].(*ast.Ident); ok && len(x.Rhs) == 1 {
				if lit, ok := x.Rhs[0].(*ast.FuncLit); ok {
					bound[id.Name] = lit
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || vpLit != nil || sel.Sel.Name != "Do" || len(x.Args) != 2 {
				return true
			}
			switch body := x.Args[1].(type) {
			case *ast.FuncLit:
				vpLit = body
			case *ast.Ident:
				vpLit = bound[body.Name]
			}
		}
		return true
	})
	if vpLit == nil {
		t.Fatalf("%s: no Do with a VP function literal", path)
	}
	s.vpBody, s.vpName = vpLit.Body, vpLit.Type.Params.List[0].Names[0].Name
	ast.Inspect(s.vpBody, func(n ast.Node) bool {
		if x, ok := n.(*ast.CallExpr); ok && s.phBody == nil && len(x.Args) == 1 {
			sel, ok := x.Fun.(*ast.SelectorExpr)
			lit, isLit := x.Args[0].(*ast.FuncLit)
			if ok && isLit && (sel.Sel.Name == "GlobalPhase" || sel.Sel.Name == "NodePhase") {
				s.phBody = lit.Body
			}
		}
		return s.phBody == nil
	})
	if s.phBody == nil {
		t.Fatalf("%s: the first Do's VP function enters no phase", path)
	}
	return s
}

type goMutant struct {
	name   string // base/operator
	kind   string // base, hazard or twin
	src    []byte
	strict []byte // src with ppm.Run replaced by strictRun
	race   string // "race" or "-"
	sw     string // "strict" or "-"
	report map[string]bool
}

// strictRun replaces ppm.Run in a mutant's strict source: it sets
// StrictWrites and prints every conflict and hazard the run found.
const strictRun = `func mutRun(opt ppm.Options, prog func(*ppm.Runtime)) (*ppm.Report, error) {
	opt.StrictWrites = true
	rep, err := ppm.Run(opt, prog)
	if rep != nil {
		for _, c := range rep.Conflicts {
			println("strict:", c.String())
		}
		for _, h := range rep.Hazards {
			println("strict:", h.String())
		}
	}
	return rep, err
}`

func goMutants(t *testing.T) []*goMutant {
	var out []*goMutant
	for _, b := range goConf.bases {
		emit := func(name, kind string, s *goSite) {
			var buf, strict bytes.Buffer
			if err := format.Node(&buf, token.NewFileSet(), s.file); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s.run.Fun = ast.NewIdent("mutRun")
			s.decl(strictRun)
			if err := format.Node(&strict, token.NewFileSet(), s.file); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, &goMutant{name: name, kind: kind, src: buf.Bytes(), strict: strict.Bytes(), report: map[string]bool{}})
		}
		emit(b.name+"/base", "base", parseSite(t, b))
		for _, op := range goConf.ops {
			s := parseSite(t, b)
			op.plant(s)
			kind := "twin"
			if op.hazard {
				kind = "hazard"
			}
			emit(b.name+"/"+op.name, kind, s)
		}
	}
	return out
}

// pkgDir names a mutant's package directory in the temp module.
func pkgDir(name string) string {
	return strings.NewReplacer("/", "_", "+", "_", "-", "_").Replace(name)
}

// writeGoModule writes every mutant, its source or its strict source, as
// a main package of one module that resolves ppm to this repository.
func writeGoModule(t *testing.T, ms []*goMutant, strict bool) string {
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mod := "module ppmmutants\n\ngo 1.24\n\nrequire ppm v0.0.0\n\nreplace ppm => " + repo + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		p := filepath.Join(dir, pkgDir(m.name))
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		src := m.src
		if strict {
			src = m.strict
		}
		if err := os.WriteFile(filepath.Join(p, "main.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// vetMutants runs every rule over every mutant with one load.
func vetMutants(t *testing.T, dir string, ms []*goMutant) {
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byDir[filepath.Base(p.Dir)] = p
	}
	for _, m := range ms {
		p := byDir[pkgDir(m.name)]
		if p == nil {
			t.Fatalf("%s: not loaded", m.name)
		}
		diags, err := analysis.Run([]*analysis.Package{p}, analysis.Rules())
		if err != nil {
			t.Fatalf("%s: %v\n%s", m.name, err, m.src)
		}
		for _, d := range diags {
			m.report[d.Analyzer.Name] = true
		}
	}
}

// goRaceRuns is how many -race runs a mutant gets; one reported race
// marks it raced.
const goRaceRuns = 3

// raceMutants builds every mutant with -race in one go build and runs
// each goRaceRuns times under the parallel scheduler with four workers.
// A base or a twin must exit cleanly; a hazard may fail the program's
// own check.
func raceMutants(t *testing.T, dir string, ms []*goMutant) {
	bin := filepath.Join(dir, "bin")
	build := exec.Command("go", "build", "-race", "-o", bin+string(filepath.Separator), "./...")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	for _, m := range ms {
		m.race = "-"
		for i := 0; i < goRaceRuns; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			cmd := exec.CommandContext(ctx, filepath.Join(bin, pkgDir(m.name)))
			cmd.Env = append(os.Environ(), "PPM_PARALLEL=1", "GOMAXPROCS=4")
			out, err := cmd.CombinedOutput()
			cancel()
			if bytes.Contains(out, []byte("WARNING: DATA RACE")) {
				m.race = "race"
			}
			var exit *exec.ExitError
			if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 66) && m.kind != "hazard" {
				t.Errorf("%s: run %d: %v\n%s", m.name, i, err, out)
			}
		}
	}
}

// strictMutants builds every mutant's strict source and runs each once.
// A base is reported when its run prints a conflict or a hazard, any
// other mutant when its run prints one its base's run does not (jacobi's
// sweep reads back its own writes by design: the begin-of-phase values
// are its double buffer). A base or a twin must exit cleanly; a hazard
// may fail the run.
func strictMutants(t *testing.T, dir string, ms []*goMutant) {
	bin := filepath.Join(dir, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var base map[string]bool
	for _, m := range ms {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		out, err := exec.CommandContext(ctx, filepath.Join(bin, pkgDir(m.name))).CombinedOutput()
		cancel()
		if err != nil && m.kind != "hazard" {
			t.Errorf("%s: strict run: %v\n%s", m.name, err, out)
		}
		found := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "strict: ") {
				found[line] = true
			}
		}
		if m.kind == "base" {
			base = found
		}
		m.sw = "-"
		for line := range found {
			if m.kind == "base" || !base[line] {
				m.sw = "strict"
			}
		}
	}
}

// goRuleOracle names the rules neither runtime check can judge, and why;
// every other rule must report a hazard row that both -race and
// StrictWrites miss, or it only says early what a run says anyway.
var goRuleOracle = map[string]string{
	"phaserace": "scored against StrictWrites by TestOracleTable",
	"runerror":  "no runtime counterpart: a discarded run error is a fact about the source",
}

// goScore counts, per rule, the hazard rows it reports (with how many
// of them -race also reports, StrictWrites also reports, both miss, and
// nothing else reports) and the twins it reports.
func goScore(ms []*goMutant, rules []string) (string, map[string]int) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %6s %6s %13s %6s %12s\n", "rule", "hazards", "raced", "strict", "runtime-missed", "alone", "false-alarm")
	missed := map[string]int{}
	for _, rule := range append([]string{"race", "strict"}, rules...) {
		var hazards, raced, strict, both, alone, twins int
		for _, m := range ms {
			fired := m.report[rule] || rule == "race" && m.race == "race" || rule == "strict" && m.sw == "strict"
			switch {
			case !fired:
			case m.kind == "hazard":
				hazards++
				others := len(m.report)
				if m.race == "race" {
					raced++
					others++
				}
				if m.sw == "strict" {
					strict++
					others++
				}
				if m.race != "race" && m.sw != "strict" {
					both++
				}
				if others == 1 {
					alone++
				}
			case m.kind == "twin":
				twins++
			}
		}
		missed[rule] = both
		fmt.Fprintf(&b, "%-12s %8d %6d %6d %14d %6d %12d\n", rule, hazards, raced, strict, both, alone, twins)
	}
	return b.String(), missed
}

// readGoldenRuns reads the race and strict columns of a table.
func readGoldenRuns(t *testing.T, golden string) map[string][2]string {
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test -run TestGoMutantTable -update writes it)", err)
	}
	out := map[string][2]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			break
		}
		if len(f) >= 4 && !strings.HasPrefix(f[0], "#") && f[0] != "mutant" {
			out[f[0]] = [2]string{f[2], f[3]}
		}
	}
	return out
}

// TestGoMutantTable builds the Go mutant corpus, runs every ppmvet rule
// over it and checks the verdict table against testdata/gomutants.golden.
// The race and strict columns come from the golden; -update rebuilds the
// mutants with -race and under StrictWrites, runs them and rewrites the
// file. A rule that the runs can judge must report at least one hazard
// row that neither of them reports. `make vet-score` prints the score.
func TestGoMutantTable(t *testing.T) {
	const golden = "testdata/gomutants.golden"
	ms := goMutants(t)
	dir := writeGoModule(t, ms, false)
	vetMutants(t, dir, ms)
	if *update {
		raceMutants(t, dir, ms)
		strictMutants(t, writeGoModule(t, ms, true), ms)
	} else {
		cols := readGoldenRuns(t, golden)
		for _, m := range ms {
			runs, ok := cols[m.name]
			if !ok {
				t.Fatalf("%s has no row in %s (rerun with -update)", m.name, golden)
			}
			m.race, m.sw = runs[0], runs[1]
		}
	}
	var rules []string
	for _, a := range analysis.Rules() {
		rules = append(rules, a.Name)
	}
	var b strings.Builder
	b.WriteString("# ppmvet's Go rules against the race detector and StrictWrites (TestGoMutantTable; go test -run TestGoMutantTable -update rewrites this file).\n")
	b.WriteString("# kind: hazard (the planted update races, bypasses the phase discipline, or reads back its own update in one phase), twin (the same accesses made safe), base (unmutated).\n")
	fmt.Fprintf(&b, "# race: whether any of %d runs of the -race build under PPM_PARALLEL=1 and GOMAXPROCS=4 reports a data race.\n", goRaceRuns)
	b.WriteString("# strict: whether a run with StrictWrites set in the source reports a conflict, a stale read or a write around the commit (beyond what its base's run reports).\n")
	b.WriteString("# one column per ppmvet rule: x where it reports the mutant.\n")
	fmt.Fprintf(&b, "%-28s %-6s %-4s %-6s", "mutant", "kind", "race", "strict")
	for _, r := range rules {
		fmt.Fprintf(&b, " %s", r)
	}
	b.WriteString("\n")
	for _, m := range ms {
		row := fmt.Sprintf("%-28s %-6s %-4s %-6s", m.name, m.kind, m.race, m.sw)
		for _, r := range rules {
			mark := "-"
			if m.report[r] {
				mark = "x"
			}
			row += fmt.Sprintf(" %-*s", len(r), mark)
		}
		b.WriteString(strings.TrimRight(row, " ") + "\n")
		if m.kind == "base" && len(m.report) > 0 {
			t.Errorf("%s: the unmutated program draws findings %v", m.name, m.report)
		}
		op := m.name[strings.Index(m.name, "/")+1:]
		if want := op == "local-write" || op == "stale-read"; m.kind != "base" && (m.sw == "strict") != want {
			t.Errorf("%s: StrictWrites reports it: %v, want %v", m.name, m.sw == "strict", want)
		}
	}
	score, missed := goScore(ms, rules)
	b.WriteString("\n" + score)
	t.Logf("ppmvet's Go rules against the race detector and StrictWrites, %d rows:\n%s", len(ms), score)
	for _, r := range rules {
		if _, ok := goRuleOracle[r]; !ok && missed[r] == 0 {
			t.Errorf("rule %s reports no hazard row that both -race and StrictWrites miss: a run already decides what it reports", r)
		}
	}

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
