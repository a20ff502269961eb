package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestCheckBadFixture(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lang", "testdata", "bad_phase.ppm")
	var code int
	out := capture(t, func() { code = check([]string{fixture}, false) })
	if code != 1 {
		t.Errorf("check exit = %d, want 1", code)
	}
	for _, want := range []string{
		fixture + ":8:", "[phasebound]",
		fixture + ":10:", "[phaserace]",
		"problems (1 errors, 1 warnings)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckJSON(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lang", "testdata", "bad_phase.ppm")
	var code int
	out := capture(t, func() { code = check([]string{fixture}, true) })
	if code != 1 {
		t.Errorf("check exit = %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Rule     string `json:"rule"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Rule != "phasebound" || diags[0].Severity != "error" || diags[0].Line != 8 {
		t.Errorf("unexpected first diagnostic: %+v", diags[0])
	}
	if diags[1].Rule != "phaserace" || diags[1].Severity != "warning" || diags[1].Line != 10 {
		t.Errorf("unexpected second diagnostic: %+v", diags[1])
	}
}

func TestCheckCleanExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "language", "*.ppm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	var code int
	out := capture(t, func() { code = check(files, false) })
	if code != 0 {
		t.Errorf("check exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("expected ok summary, got %q", out)
	}
}

// TestRunStrict runs the built command: every example prints what
// testdata/<name>.stdout holds and nothing on stderr; a program whose
// VPs read back their own updates prints one warning a read and
// succeeds; one whose VPs write one element fails.
func TestRunStrict(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ppmc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(file string, args ...string) (stdout, stderr string, err error) {
		var o, e strings.Builder
		cmd := exec.Command(bin, append(append([]string{"run"}, args...), file)...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	for _, name := range []string{"cg", "histogram", "search"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".stdout"))
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, err := run(filepath.Join("..", "..", "examples", "language", name+".ppm"))
		if err != nil || stdout != string(want) || stderr != "" {
			t.Errorf("%s: err %v\nstdout %q\nwant   %q\nstderr %q", name, err, stdout, want, stderr)
		}
	}
	_, stderr, err := run(filepath.Join("testdata", "stale.ppm"), "-nodes", "2")
	// Eight stale reads, of two arrays in one phase: one line each array.
	if n := strings.Count(stderr, "warning: core: 4 stale reads of "); err != nil || n != 2 || !strings.Contains(stderr, "VP 1:1 reads A[3]") {
		t.Errorf("stale.ppm: err %v, %d warnings, want 2:\n%s", err, n, stderr)
	}
	_, stderr, err = run(filepath.Join("testdata", "conflict.ppm"), "-nodes", "2")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 || !strings.Contains(stderr, "conflicting writes to A[0]") {
		t.Errorf("conflict.ppm: err %v, stderr %q; want a failed run naming A[0]", err, stderr)
	}
}
