package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// NodeReply is one line a ppm-node writes on stdout, whatever launched
// it. Every hosted rank ends each job with one terminal reply (Done,
// carrying that rank's NodeResult, error included); before it, rank 0
// reports each committed global phase. A node that cannot start answers
// with terminal replies too.
type NodeReply struct {
	// ID is the job's jobspec.NodeJob ID (empty for the one job a
	// command line describes).
	ID string `json:"id"`
	// Phase is a progress reply's count of global phases committed so
	// far on rank 0.
	Phase int64 `json:"phase,omitempty"`
	// Done marks the terminal reply, which carries Result.
	Done   bool        `json:"done,omitempty"`
	Result *NodeResult `json:"result,omitempty"`
}

// StopExitCode is the exit status of a node or server process stopped
// by an operator signal (SIGINT/SIGTERM) after draining its in-flight
// work. The supervisor treats it as a requested shutdown, not a crash:
// a rank exiting with it is never restarted. Distinct from
// faultinject.KillExitCode (37), which marks an injected crash.
const StopExitCode = 86

// ErrOperatorStop marks a fleet attempt that ended because a host was
// stopped by an operator request rather than a failure; the supervisor
// returns it (wrapped, with per-host detail) without spending restarts.
var ErrOperatorStop = errors.New("fleet stopped by operator request")

// LaunchOpts configures a localhost multi-process launch.
type LaunchOpts struct {
	// Nodes is how many node processes to fork.
	Nodes int
	// NodeBin is the ppm-node binary to exec.
	NodeBin string
	// NodeArgs are appended to every node's command line: the job
	// (-spec-json, or the app flags) or -serve, and transport flags.
	// StartHost itself supplies -rank, -nodes, -rendezvous, -run-id,
	// -procs / -proc and the checkpoint flags.
	NodeArgs []string
	// Timeout kills the whole fleet if one attempt exceeds it (LaunchLocal
	// default 120s; zero in StartFleet means none, which serve fleets
	// use: their jobs may outlive it). With the engine's failure detector
	// on, a sick fleet aborts itself long before this backstop.
	Timeout time.Duration
	// Stderr receives every node's stderr (default os.Stderr).
	Stderr io.Writer

	// Env entries are appended to each node's inherited environment
	// (fault specs, mostly); the launcher itself adds PPM_FAULT_ATTEMPT
	// so one-shot injected faults fire only on the first attempt.
	Env []string

	// MaxRestarts upgrades the watchdog to a supervisor (Supervisor):
	// when an attempt fails, every host is killed and the whole fleet is
	// relaunched — with -restore when CheckpointDir is set, so the new
	// fleet resumes from the last checkpoint every rank completed — up to
	// MaxRestarts times. A host blamed for two failed attempts is
	// permanently dead, and the fleet is relaunched on one host process
	// fewer, with -restore-rescale, down to one process.
	MaxRestarts int
	// CheckpointDir, when set, is passed to every node as
	// -checkpoint-dir (with -checkpoint-every CheckpointEvery); it must
	// outlive the attempt, unlike the per-attempt rendezvous dir.
	CheckpointDir string
	// CheckpointEvery is the minimum number of committed global phases
	// between checkpoint writes (node default if 0).
	CheckpointEvery int
	// OnRetry, if non-nil, is called before each relaunch with the new
	// attempt number (1-based), its host-process count and the failure
	// that caused it.
	OnRetry func(attempt, procs int, cause error)
}

// LaunchLocal forks Nodes ppm-node processes wired together through a
// temporary rendezvous directory on loopback TCP, waits for them, and
// takes each rank's NodeResult from its terminal reply. The slice is
// indexed by rank and always has Nodes entries; a non-nil error
// summarizes every process that failed to run or report. With
// MaxRestarts > 0 it supervises (Supervisor): a failed attempt is
// relaunched on a fresh fleet until an attempt succeeds or the restart
// budget is spent, in which case the last attempt's results and error
// are returned.
func LaunchLocal(o LaunchOpts) ([]NodeResult, error) {
	if o.Nodes <= 0 {
		return nil, fmt.Errorf("dist: LaunchLocal with %d nodes", o.Nodes)
	}
	if o.NodeBin == "" {
		return nil, fmt.Errorf("dist: LaunchLocal needs the ppm-node binary path")
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	sup := Supervisor{Nodes: o.Nodes, Retries: o.MaxRestarts, OnRetry: o.OnRetry}
	return sup.Run(func(attempt, procs int) ([]NodeResult, error) {
		f, err := o.StartFleet(attempt, procs)
		if err != nil {
			return nil, err
		}
		defer f.Stop()
		return f.Run("", nil, nil)
	})
}
