package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ppm/internal/core"
	"ppm/internal/machine"
)

// finding is the (rule, line, severity) triple a fixture is expected to
// produce.
type finding struct {
	rule string
	line int
	sev  Severity
}

// TestAnalyzeFixtures runs Analyze over the .ppm fixtures in testdata,
// one per diagnostic rule, and asserts the exact findings (both
// directions: everything expected fires, nothing else does).
func TestAnalyzeFixtures(t *testing.T) {
	cases := []struct {
		file string
		want []finding
	}{
		{"phasebound.ppm", []finding{
			{"phasebound", 6, SevError},
			{"phasebound", 7, SevError},
		}},
		{"unusedshared.ppm", []finding{
			{"unusedshared", 3, SevWarning},
		}},
		{"bad_phase.ppm", []finding{
			{"phasebound", 8, SevError},
			{"phaserace", 10, SevWarning},
		}},
		{"phaserace.ppm", []finding{
			{"phaserace", 12, SevWarning},
			{"phaserace", 14, SevWarning},
			{"phaserace.possible", 16, SevWarning},
			{"phaserace", 22, SevWarning},
			{"phaserace.possible", 30, SevWarning},
			{"phaserace", 48, SevWarning},
			{"phaserace.possible", 49, SevWarning},
			{"phaserace.possible", 62, SevWarning},
			{"phaserace.possible", 69, SevWarning},
		}},
		{"clean.ppm", nil},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := Analyze(prog)
			gotSet := map[string]bool{}
			for _, d := range got {
				gotSet[fmt.Sprintf("%s@%d:%s", d.Rule, d.Line, d.Sev)] = true
			}
			for _, w := range tc.want {
				k := fmt.Sprintf("%s@%d:%s", w.rule, w.line, w.sev)
				if !gotSet[k] {
					t.Errorf("missing expected diagnostic %s; got %v", k, got)
				}
			}
			if len(got) != len(tc.want) {
				t.Errorf("got %d diagnostics, want %d:\n%v", len(got), len(tc.want), got)
			}
		})
	}
}

// TestPhaseRaceRankShapes holds two shapes of phaserace.ppm to the
// runtime: a loop whose trip count depends on rank, and vp_count under
// a do whose K differs per node. StrictWrites finds no conflict at 1-3
// nodes, so the checker may say phaserace.possible but never phaserace.
func TestPhaseRaceRankShapes(t *testing.T) {
	for name, src := range map[string]string{
		"trip": `node shared float R[8];
func f() { global phase { for i = 0 to 1 - vp_node_rank { R[2] = 1.0; } } }
main { do (8) f(); }`,
		"pernode": `global shared float A[8];
func f() { global phase { if (vp_node_rank == 0) { A[vp_count] = 1.0; } } }
main { do (node_id + 1) f(); }`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for n := 1; n <= 3; n++ {
			rep, err := Interpret(prog, core.Options{Nodes: n, StrictWrites: true, Machine: machine.Generic()}, nil)
			if err != nil || len(rep.Conflicts) != 0 {
				t.Errorf("%s at %d nodes: %v", name, n, err)
			}
		}
		if ds := Analyze(prog); len(ds) != 1 || ds[0].Rule != "phaserace.possible" {
			t.Errorf("%s: want one phaserace.possible, got %v", name, ds)
		}
	}
}

// TestAnalyzeMatchesCheck pins the contract that Check returns exactly
// the first error Analyze reports, so the two entry points cannot
// drift.
func TestAnalyzeMatchesCheck(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "bad_phase.ppm"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cerr := Check(prog)
	if cerr == nil {
		t.Fatal("Check: expected an error")
	}
	e, ok := cerr.(*Error)
	if !ok {
		t.Fatalf("Check: expected *Error, got %T", cerr)
	}
	var firstErr *Diag
	for _, d := range Analyze(prog) {
		if d.Sev == SevError {
			firstErr = &d
			break
		}
	}
	if firstErr == nil {
		t.Fatal("Analyze: expected at least one error")
	}
	if e.Line != firstErr.Line || e.Col != firstErr.Col || e.Msg != firstErr.Msg {
		t.Errorf("Check error %v != first Analyze error %v", e, firstErr)
	}
	if e.Rule != "phasebound" {
		t.Errorf("Check error rule = %q, want phasebound", e.Rule)
	}
}

// TestAnalyzeExamples keeps the shipped example programs clean under
// every lint rule.
func TestAnalyzeExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "language", "*.ppm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", f, err)
		}
		if diags := Analyze(prog); len(diags) != 0 {
			t.Errorf("%s: expected no diagnostics, got %v", f, diags)
		}
	}
}
