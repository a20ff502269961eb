package analysis_test

import (
	"slices"
	"testing"

	"ppm/internal/analysis"
	"ppm/internal/analysis/analysistest"
)

// Each rule runs alone over its fixture: the // want expectations fail
// the test both when the rule misses a positive case and when it fires
// on a negative one (so disabling a rule breaks its test).
func TestRunError(t *testing.T) {
	analysistest.Run(t, "testdata/src/runerror", analysis.RunErrorAnalyzer)
}

func TestPhaseRace(t *testing.T) {
	analysistest.Run(t, "testdata/src/phaserace", analysis.PhaseRaceAnalyzer)
}

// TestIgnoreAnnotations pins the //ppmvet:ignore contract: standalone
// annotations reach the next line, rule names cover dotted sub-rules,
// and neither a wrong rule name nor an end-of-line annotation on the
// line above suppresses a finding.
func TestIgnoreAnnotations(t *testing.T) {
	analysistest.Run(t, "testdata/src/ignore", analysis.PhaseRaceAnalyzer)
}

// The clean fixture exercises every rule's negative space at once: the
// idiomatic program from the paper's quickstart must stay findings-free.
func TestCleanProgram(t *testing.T) {
	analysistest.RunAll(t, "testdata/src/clean")
}

// TestRulesComplete pins the advertised rule set (the vet suite's
// public contract: exactly the two documented rules, in order, each
// found by RuleByName). A rule added or removed without updating the
// contract fails here.
func TestRulesComplete(t *testing.T) {
	want := []string{"runerror", "phaserace"}
	var got []string
	for _, a := range analysis.Rules() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("rule %+v incomplete", a)
		}
		if analysis.RuleByName(a.Name) != a {
			t.Errorf("RuleByName(%q) does not return the listed rule", a.Name)
		}
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Rules() = %v, want %v", got, want)
	}
}
