package dist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A rank exiting with StopExitCode is an operator stop: the supervisor
// must report ErrOperatorStop and spend no restarts on it.
func TestSupervisorDoesNotRestartOperatorStop(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fake-node")
	script := "#!/bin/sh\nexit 86\n"
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	restarts := 0
	_, err := LaunchLocal(LaunchOpts{
		Nodes:       2,
		NodeBin:     fake,
		MaxRestarts: 3,
		Timeout:     30 * time.Second,
		Stderr:      io.Discard,
		OnRestart:   func(int, error) { restarts++ },
	})
	if !errors.Is(err, ErrOperatorStop) {
		t.Fatalf("err = %v, want ErrOperatorStop", err)
	}
	if restarts != 0 {
		t.Fatalf("supervisor restarted an operator-stopped fleet %d times", restarts)
	}
}

// An ordinary crash (non-stop exit code) must still consume the restart
// budget — the operator-stop carve-out must not swallow real failures.
func TestSupervisorStillRestartsCrashes(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fake-node")
	script := "#!/bin/sh\nexit 3\n"
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	restarts := 0
	_, err := LaunchLocal(LaunchOpts{
		Nodes:       2,
		NodeBin:     fake,
		MaxRestarts: 2,
		Timeout:     30 * time.Second,
		Stderr:      io.Discard,
		OnRestart:   func(int, error) { restarts++ },
	})
	if err == nil || errors.Is(err, ErrOperatorStop) {
		t.Fatalf("err = %v, want a plain launch failure", err)
	}
	if restarts != 2 {
		t.Fatalf("supervisor restarted %d times, want 2", restarts)
	}
}

// A spec's deadline_ms aborts a too-slow distributed run with the rank
// and the in-flight operation named, and the launch surfaces that
// teardown as an error rather than hanging.
func TestJobDeadlineTearsDownFleet(t *testing.T) {
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	_, err := LaunchLocal(LaunchOpts{
		Nodes:   2,
		NodeBin: nodeBin,
		NodeArgs: []string{"-spec-json", `{"app":"cg","nodes":2,"cores":2,` +
			`"cg":{"NX":24,"NY":24,"NZ":48,"MaxIter":40},"deadline_ms":30}`},
		Timeout: 60 * time.Second,
		Stderr:  io.Discard,
	})
	if err == nil {
		t.Fatal("a 30ms deadline let a multi-second cg run pass")
	}
	if !strings.Contains(err.Error(), "job deadline") || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("deadline error does not name the deadline and rank: %v", err)
	}
}
