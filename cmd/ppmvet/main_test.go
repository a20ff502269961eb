package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRulesFlagDedupes: naming a rule twice in -rules runs it once, so
// every finding prints once.
func TestRulesFlagDedupes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ppmvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "ignore")
	out, err := exec.Command(bin, "-rules", "phaserace, phaserace", fixture).Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("ppmvet: %v, want exit status 1", err)
	}
	if n := strings.Count(string(out), "overlapping elements of d"); n != 1 {
		t.Errorf("finding on d printed %d times, want 1:\n%s", n, out)
	}
	if !strings.HasSuffix(string(out), "\n2 problems\n") {
		t.Errorf("want a 2-problem summary:\n%s", out)
	}
}
