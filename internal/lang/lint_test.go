package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
		{"staleread.ppm", []finding{
			{"staleread", 8, SevWarning},
			{"staleread", 10, SevWarning},
			{"phaserace", 11, SevWarning},
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
