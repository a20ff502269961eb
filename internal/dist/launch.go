package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"ppm/internal/faultinject"
	"ppm/internal/partition"
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

// detectGrace is how long, after the first rank failure of an attempt,
// the supervisor lets the surviving ranks self-abort (the engine's
// failure detector normally gets them out in seconds with a precise
// error) before killing them.
const detectGrace = 20 * time.Second

// ErrOperatorStop marks a launch attempt that ended because a rank was
// stopped by an operator request rather than a failure; LaunchLocal
// returns it (wrapped, with per-rank detail) without spending restarts.
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
	// Timeout kills the whole fleet if one attempt exceeds it (default
	// 120s). With the engine's failure detector on, a sick fleet aborts
	// itself long before this backstop.
	Timeout time.Duration
	// Stderr receives every node's stderr (default os.Stderr).
	Stderr io.Writer

	// Env entries are appended to each node's inherited environment
	// (fault specs, mostly); the launcher itself adds PPM_FAULT_ATTEMPT
	// so one-shot injected faults fire only on the first attempt.
	Env []string

	// MaxRestarts upgrades the watchdog to a supervisor: when any rank
	// fails, the supervisor kills the survivors and relaunches the whole
	// fleet — with -restore when CheckpointDir is set, so the new fleet
	// resumes from the last checkpoint every rank completed — up to
	// MaxRestarts times. Restarting all ranks (not just the dead one) is
	// what keeps recovery consistent: survivors cannot roll back to the
	// rejoiner's phase, so everyone restarts from one checkpointed cut.
	MaxRestarts int
	// CheckpointDir, when set, is passed to every node as
	// -checkpoint-dir (with -checkpoint-every CheckpointEvery); it must
	// outlive the attempt, unlike the per-launch rendezvous dir.
	CheckpointDir string
	// CheckpointEvery is the minimum number of committed global phases
	// between checkpoint writes (node default if 0).
	CheckpointEvery int
	// OnRestart, if non-nil, is called before each relaunch with the new
	// attempt number (1-based) and the failure that caused it.
	OnRestart func(attempt int, cause error)

	// PerRankRestarts is the per-host failure-attribution budget behind
	// elastic rescale (default 2): a host process blamed for that many
	// consecutive failed attempts — it exited with KillExitCode, or died
	// without reporting any result while its peers self-aborted cleanly
	// — is declared permanently dead rather than transiently unlucky.
	// The supervisor then relaunches the fleet on one fewer host
	// process, with -restore-rescale when CheckpointDir is set so the
	// shrunk fleet resumes every logical rank from the last checkpoint.
	PerRankRestarts int
	// MinNodes floors the rescale ladder (default 1): the supervisor
	// never shrinks the fleet below this many host processes; a dead
	// host at the floor surfaces the error instead.
	MinNodes int
	// OnRescale, if non-nil, is called before each shrunken relaunch
	// with the new host-process count and the failure that exhausted
	// the dead host's budget.
	OnRescale func(procs int, cause error)
}

// LaunchLocal forks Nodes ppm-node processes wired together through a
// temporary rendezvous directory on loopback TCP, waits for them, and
// takes each rank's NodeResult from its terminal reply. The slice is
// indexed by rank and always has Nodes entries; a non-nil error
// summarizes every process that failed to run or report. With
// MaxRestarts > 0 it supervises: a failed attempt is relaunched (all
// ranks, fresh run-id, -restore when checkpointing) until an attempt
// succeeds or the restart budget is spent, in which case the last
// attempt's results and error are returned. The supervisor also attributes failures per host: a
// host blamed PerRankRestarts times in a row is permanently dead, and
// the fleet is relaunched on one fewer host process (each surviving
// process block-hosting several logical ranks, restoring their
// checkpoints via -restore-rescale), down to the MinNodes floor.
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
	if o.PerRankRestarts <= 0 {
		o.PerRankRestarts = 2
	}
	if o.MinNodes <= 0 {
		o.MinNodes = 1
	}
	if o.MinNodes > o.Nodes {
		o.MinNodes = o.Nodes
	}
	dir, err := os.MkdirTemp("", "ppm-dist-")
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous dir: %w", err)
	}
	defer os.RemoveAll(dir)

	var results []NodeResult
	var lastErr error
	procs := o.Nodes
	failCounts := make([]int, procs)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if o.OnRestart != nil {
				o.OnRestart(attempt, lastErr)
			}
			// Brief backoff so a crash loop does not hammer the host.
			time.Sleep(time.Duration(attempt) * 250 * time.Millisecond)
		}
		var suspects []int
		results, suspects, lastErr = launchOnce(&o, dir, attempt, procs)
		if lastErr == nil || attempt >= o.MaxRestarts || errors.Is(lastErr, ErrOperatorStop) {
			return results, lastErr
		}
		// Per-host failure attribution: a host blamed for PerRankRestarts
		// consecutive failed attempts is permanently dead — shrink the
		// fleet by one host process and start the ladder over (host
		// indexes re-map under the new block hosting, so stale blame
		// would land on the wrong process).
		for _, p := range suspects {
			if p < len(failCounts) {
				failCounts[p]++
			}
		}
		for p, n := range failCounts {
			if n < o.PerRankRestarts {
				continue
			}
			if procs-1 < o.MinNodes {
				return results, fmt.Errorf("dist: host %d is permanently dead and the fleet is at the MinNodes floor (%d): %w", p, o.MinNodes, lastErr)
			}
			procs--
			failCounts = make([]int, procs)
			if o.OnRescale != nil {
				o.OnRescale(procs, lastErr)
			}
			break
		}
	}
}

// Host is one started ppm-node process of a fleet, hosting the logical
// ranks [Lo, Hi).
type Host struct {
	Lo, Hi int
	// Stdin carries a -serve node's job lines; closing it ends the
	// node's session.
	Stdin io.WriteCloser
	// Replies delivers the node's stdout lines in order. It is closed
	// only after stdout reached EOF and the process was waited for, so no
	// reply a dying node wrote is lost. The owner keeps receiving until
	// then (Wait does), or the node blocks on a full pipe.
	Replies <-chan NodeReply

	cmd *exec.Cmd
	err error // the process's exit status, set before Replies closes
}

// Wait drains h's remaining replies and returns the process's exit
// status.
func (h *Host) Wait() error {
	for range h.Replies {
	}
	return h.err
}

// Kill kills the process. Its Replies still close, after the exit.
func (h *Host) Kill() { h.cmd.Process.Kill() }

// StartHost starts host process proc of a fleet attempt that
// block-hosts o.Nodes logical ranks on procs processes (procs < o.Nodes
// puts several ranks in each), meeting in the rendezvous directory dir
// under runID. This is the one place a node's command line is built: the
// fleet flags and, with o.CheckpointDir, the checkpoint flags (a restore
// on every attempt after the first), then o.NodeArgs. The environment is
// the inherited one plus o.Env plus PPM_FAULT_ATTEMPT=attempt, so
// one-shot injected faults arm on attempt 0 only.
func (o *LaunchOpts) StartHost(dir, runID string, attempt, procs, proc int) (*Host, error) {
	lo, hi := partition.NewBlock(o.Nodes, procs).Range(proc)
	args := []string{
		"-rank", strconv.Itoa(lo),
		"-nodes", strconv.Itoa(o.Nodes),
		"-rendezvous", dir,
		"-run-id", runID,
	}
	if procs < o.Nodes {
		args = append(args, "-procs", strconv.Itoa(procs), "-proc", strconv.Itoa(proc))
	}
	if o.CheckpointDir != "" {
		args = append(args, "-checkpoint-dir", o.CheckpointDir)
		if o.CheckpointEvery > 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(o.CheckpointEvery))
		}
		if attempt > 0 {
			if procs < o.Nodes {
				args = append(args, "-restore-rescale")
			} else {
				args = append(args, "-restore")
			}
		}
	}
	cmd := exec.Command(o.NodeBin, append(args, o.NodeArgs...)...)
	cmd.Stderr = o.Stderr
	cmd.Env = append(append(os.Environ(), o.Env...), fmt.Sprintf("PPM_FAULT_ATTEMPT=%d", attempt))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	replies := make(chan NodeReply)
	h := &Host{Lo: lo, Hi: hi, Stdin: stdin, Replies: replies, cmd: cmd}
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var rep NodeReply
			if dec.Decode(&rep) != nil {
				break
			}
			replies <- rep
		}
		// Read to EOF whatever did not decode: Wait closes the pipe, so it
		// must not run before every read has returned.
		io.Copy(io.Discard, stdout)
		h.err = cmd.Wait()
		close(replies)
	}()
	return h, nil
}

// launchOnce runs one fleet attempt on procs host processes (procs <
// Nodes block-hosts several logical ranks per process). The rendezvous
// dir is reused across attempts: the per-attempt run-id in the address
// files keeps a restarted fleet from dialing a dead predecessor's
// addresses. suspects lists the host processes whose death looks like
// the attempt's root cause (injected kill, or dying resultless while
// peers self-aborted with precise errors) for per-host attribution.
func launchOnce(o *LaunchOpts, dir string, attempt, procs int) (results []NodeResult, suspects []int, err error) {
	runID := fmt.Sprintf("ppm-%d-a%d", os.Getpid(), attempt)
	hosts := make([]*Host, procs)
	for p := range hosts {
		h, err := o.StartHost(dir, runID, attempt, procs, p)
		if err != nil {
			for _, h := range hosts[:p] {
				h.Kill()
				h.Wait()
			}
			return nil, nil, fmt.Errorf("dist: start host %d: %w", p, err)
		}
		h.Stdin.Close() // the job is on the command line
		hosts[p] = h
	}

	// Supervise the attempt: the watchdog backstops a fully hung fleet,
	// and the grace timer bounds how long survivors may outlive the first
	// failed rank (they normally self-abort via the failure detector with
	// a much better error than a kill). Processes still alive at a
	// supervisor kill are victims, not suspects: their silence was
	// imposed, not evidence. Each host's replies are drained while it
	// runs (rank 0 reports every phase); its exit event carries the
	// terminal results.
	type exitEv struct {
		proc    int
		results []NodeResult
		err     error
	}
	exits := make(chan exitEv, procs)
	for p, h := range hosts {
		go func(p int, h *Host) {
			ev := exitEv{proc: p}
			for rep := range h.Replies {
				if rep.Done && rep.Result != nil {
					ev.results = append(ev.results, *rep.Result)
				}
			}
			ev.err = h.Wait()
			exits <- ev
		}(p, h)
	}
	results = make([]NodeResult, o.Nodes)
	seen := make([]bool, o.Nodes)
	for r := range results {
		results[r].Rank = r
	}
	parsed := make([]int, procs)
	waitErrs := make([]error, procs)
	exited := make([]bool, procs)
	victim := make([]bool, procs)
	killAll := func() {
		for p, h := range hosts {
			if !exited[p] {
				victim[p] = true
			}
			h.Kill()
		}
	}
	var timedOut, graceKilled bool
	watchdog := time.NewTimer(o.Timeout)
	defer watchdog.Stop()
	var grace <-chan time.Time
	for got := 0; got < procs; {
		select {
		case ev := <-exits:
			waitErrs[ev.proc] = ev.err
			exited[ev.proc] = true
			got++
			// One terminal reply per hosted rank, routed by its Rank.
			for _, res := range ev.results {
				if res.Rank >= 0 && res.Rank < o.Nodes && !seen[res.Rank] {
					results[res.Rank] = res
					seen[res.Rank] = true
					parsed[ev.proc]++
				}
			}
			if ev.err != nil && grace == nil && got < procs {
				grace = time.After(detectGrace)
			}
		case <-watchdog.C:
			timedOut = true
			killAll()
		case <-grace:
			graceKilled = true
			killAll()
			grace = nil
		}
	}

	var errs []string
	var stopped bool
	stoppedProc := make([]bool, procs)
	for p := 0; p < procs; p++ {
		exitCode := 0
		var ee *exec.ExitError
		if errors.As(waitErrs[p], &ee) {
			exitCode = ee.ExitCode()
		}
		switch {
		case exitCode == StopExitCode:
			stopped = true
			stoppedProc[p] = true
			errs = append(errs, fmt.Sprintf("host %d: stopped by operator (exit %d)", p, StopExitCode))
		case exitCode == faultinject.KillExitCode:
			suspects = append(suspects, p)
		case waitErrs[p] != nil && !victim[p] && parsed[p] == 0:
			// Died without managing to report anything — root-cause
			// behavior, unlike peers that self-abort with a NodeResult.
			suspects = append(suspects, p)
		}
	}
	owner := partition.NewBlock(o.Nodes, procs)
	for r := 0; r < o.Nodes; r++ {
		p := owner.Owner(r)
		if seen[r] {
			if results[r].Err != "" {
				errs = append(errs, fmt.Sprintf("rank %d: %s", r, results[r].Err))
			}
			continue
		}
		if stoppedProc[p] {
			continue // the stop message already covers this host
		}
		errs = append(errs, fmt.Sprintf("rank %d: no result (host %d exit: %v)", r, p, waitErrs[p]))
	}
	if timedOut {
		errs = append([]string{fmt.Sprintf("run exceeded %v and was killed", o.Timeout)}, errs...)
	}
	if graceKilled {
		errs = append(errs, fmt.Sprintf("supervisor killed surviving ranks %v after the first rank failed", detectGrace))
	}
	if len(errs) > 0 {
		if stopped {
			return results, suspects, fmt.Errorf("dist: %w:\n  %s", ErrOperatorStop, strings.Join(errs, "\n  "))
		}
		return results, suspects, fmt.Errorf("dist: launch failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return results, suspects, nil
}
