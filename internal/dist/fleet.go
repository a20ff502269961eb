package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ppm/internal/faultinject"
	"ppm/internal/partition"
)

// This file is the one place host processes are started, their replies
// collected and a failed job retried: the one-shot launcher (LaunchLocal)
// and the job server's pool both run jobs on a Fleet under a Supervisor.
// `make fleet-seam` keeps it so.

// detectGrace is how long, after the first host failure of an attempt,
// the surviving hosts may take to abort on their own (the engine's
// failure detector normally gets them out in seconds with a precise
// error) before they are killed.
const detectGrace = 20 * time.Second

// hostBlame is how many failed attempts a host process may be blamed for
// before the supervisor declares it permanently dead.
const hostBlame = 2

// The retry backoff: retryBase doubling per retry, plus up to half again
// of jitter, never more than retryCap.
const (
	retryBase = 200 * time.Millisecond
	retryCap  = 5 * time.Second
)

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
	err error // the process's exit status (or why it was killed), set before Replies closes
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
		var bad error
		for {
			var rep NodeReply
			if err := dec.Decode(&rep); err != nil {
				if err != io.EOF {
					// A node writes only reply lines: one that does not
					// decode is a broken node, which would otherwise idle
					// on, its answer lost.
					bad = err
					cmd.Process.Kill()
				}
				break
			}
			replies <- rep
		}
		// Read to EOF whatever did not decode: Wait closes the pipe, so it
		// must not run before every read has returned.
		io.Copy(io.Discard, stdout)
		h.err = cmd.Wait()
		if bad != nil {
			h.err = fmt.Errorf("killed after a reply that does not decode (%v): %w", bad, h.err)
		}
		close(replies)
	}()
	return h, nil
}

// Fleet is the host processes of one attempt plus their rendezvous
// directory. A one-shot fleet (the job on the hosts' command line) runs
// one job; a -serve fleet runs jobs one at a time until it is stopped or
// a job fails on it.
type Fleet struct {
	// Hosts are the fleet's processes, by host index.
	Hosts []*Host

	nodes   int
	timeout time.Duration
	dir     string // also the hosts' -run-id; removed by Stop
	broken  bool   // a job failed: the engines may be poisoned
}

// StartFleet starts attempt's procs host processes (procs < o.Nodes
// block-hosts several logical ranks per process) around a fresh
// rendezvous directory, so no host can dial a dead predecessor's
// address. Each Run on the fleet is bounded by o.Timeout, if positive.
func (o *LaunchOpts) StartFleet(attempt, procs int) (*Fleet, error) {
	dir, err := os.MkdirTemp("", "ppm-fleet-")
	if err != nil {
		return nil, fmt.Errorf("dist: rendezvous dir: %w", err)
	}
	f := &Fleet{nodes: o.Nodes, timeout: o.Timeout, dir: dir}
	for p := 0; p < procs; p++ {
		h, err := o.StartHost(dir, filepath.Base(dir), attempt, procs, p)
		if err != nil {
			f.broken = true // no grace for the hosts already started
			f.Stop()
			return nil, fmt.Errorf("dist: start host %d of %d: %w", p, procs, err)
		}
		f.Hosts = append(f.Hosts, h)
	}
	return f, nil
}

// Run runs one job on every host of f and collects one terminal reply
// per logical rank; the results are indexed by rank. line is the job's
// jobspec.NodeJob line, written to every host's stdin; a nil line means
// the job is on the hosts' command line, and stdin is closed instead.
// Replies for another job id are ignored, and rank 0's progress replies
// go to onPhase (if non-nil).
//
// Any failure fails the attempt and leaves f broken: a host exiting
// before it has answered for all its ranks or with an error, a rank's
// error, a terminal reply without a result or for a rank its host does
// not host, the o.Timeout watchdog. After the first one every stdin is
// closed, and hosts still running detectGrace later are killed. The
// error lists what failed and which hosts are suspects; a host that
// exited with StopExitCode makes it an ErrOperatorStop.
func (f *Fleet) Run(id string, line []byte, onPhase func(int64)) ([]NodeResult, error) {
	// A host's collector sends one hostEnd with !done as soon as the host
	// fails, and one with done when it is through.
	type hostEnd struct {
		proc, got    int
		done, exited bool
		exit         error
		bad          []string // protocol violations
	}
	n := len(f.Hosts)
	e := &attemptError{}
	results := make([]NodeResult, f.nodes)
	seen := make([]bool, f.nodes)
	for r := range results {
		results[r].Rank = r
	}
	var watchdog, grace <-chan time.Time
	if f.timeout > 0 {
		t := time.NewTimer(f.timeout)
		defer t.Stop()
		watchdog = t.C
	}
	failed := false
	onFail := func() {
		if !failed {
			failed = true
			for _, h := range f.Hosts {
				h.Stdin.Close()
			}
			grace = time.After(detectGrace)
		}
	}

	oneShot := line == nil
	for p, h := range f.Hosts {
		if oneShot {
			h.Stdin.Close()
		} else if _, err := h.Stdin.Write(line); err != nil {
			e.lines = append(e.lines, fmt.Sprintf("host %d: writing the job: %v", p, err))
			onFail()
		}
	}
	// Each host's replies are read while it runs. A serving host that has
	// answered for all its ranks without an error is idle again; any
	// other host is read until it exits, so its exit status is known.
	ends := make(chan hostEnd, 2*n) // at most two sends per host, so none blocks
	for p, h := range f.Hosts {
		go func(p int, h *Host) {
			end := hostEnd{proc: p}
			failed := false
			for rep := range h.Replies {
				if rep.ID != id {
					continue // a reply to no job of ours, such as a start-up failure
				}
				if !rep.Done {
					if p == 0 && onPhase != nil {
						onPhase(rep.Phase)
					}
					continue
				}
				res := rep.Result
				switch {
				case res == nil:
					end.bad = append(end.bad, fmt.Sprintf("host %d: terminal reply without a result", p))
				case res.Rank < h.Lo || res.Rank >= h.Hi:
					end.bad = append(end.bad, fmt.Sprintf("host %d: terminal reply for rank %d, which it does not host", p, res.Rank))
				case seen[res.Rank]:
					continue // a second terminal reply for a rank
				default:
					seen[res.Rank] = true
					results[res.Rank] = *res
					end.got++
				}
				if !failed && (len(end.bad) > 0 || res.Err != "") {
					failed = true
					ends <- hostEnd{proc: p}
				}
				if !oneShot && !failed && end.got == h.Hi-h.Lo {
					end.done = true
					ends <- end
					return
				}
			}
			end.done, end.exited, end.exit = true, true, h.err
			ends <- end
		}(p, h)
	}

	byHost := make([]hostEnd, n)
	victim := make([]bool, n)
	// Hosts still running at a kill are victims, not suspects: their
	// silence was imposed, not evidence.
	killRunning := func() {
		for p, h := range f.Hosts {
			if !byHost[p].done {
				victim[p] = true
				h.Kill()
			}
		}
	}
	for left := n; left > 0; {
		select {
		case end := <-ends:
			if !end.done {
				onFail()
				continue
			}
			byHost[end.proc] = end
			left--
			if h := f.Hosts[end.proc]; end.exited && (end.exit != nil || end.got < h.Hi-h.Lo) {
				onFail()
			}
		case <-watchdog:
			watchdog = nil
			e.lines = append(e.lines, fmt.Sprintf("run exceeded %v and was killed", f.timeout))
			onFail()
			killRunning()
		case <-grace:
			grace = nil
			e.lines = append(e.lines, fmt.Sprintf("supervisor killed the hosts still running %v after the first host failed", detectGrace))
			killRunning()
		}
	}
	if !failed {
		return results, nil
	}
	f.broken = true

	stopped := make([]bool, n)
	for p, end := range byHost {
		var ee *exec.ExitError
		code := 0
		if errors.As(end.exit, &ee) {
			code = ee.ExitCode()
		}
		switch {
		case code == StopExitCode:
			stopped[p], e.stopped = true, true
			e.lines = append(e.lines, fmt.Sprintf("host %d: stopped by operator (exit %d)", p, StopExitCode))
		case code == faultinject.KillExitCode:
			e.suspects = append(e.suspects, p)
		case end.exit != nil && !victim[p] && end.got == 0:
			// Died without reporting anything: root-cause behavior, unlike
			// peers that self-abort with a NodeResult.
			e.suspects = append(e.suspects, p)
		}
		e.lines = append(e.lines, end.bad...)
	}
	owner := partition.NewBlock(f.nodes, n)
	for r, res := range results {
		p := owner.Owner(r)
		switch {
		case seen[r] && res.Err != "":
			e.lines = append(e.lines, fmt.Sprintf("rank %d: %s", r, res.Err))
		case !seen[r] && !stopped[p]: // a stop message already covers a stopped host
			e.lines = append(e.lines, fmt.Sprintf("rank %d: no result (host %d exit: %v)", r, p, byHost[p].exit))
		}
	}
	return results, e
}

// Idle reports whether f can take another job: none failed on it, and
// every host is still idling. A host says nothing between jobs, so a
// reply line or the close that follows its exit both mean it is done.
func (f *Fleet) Idle() bool {
	if f.broken {
		return false
	}
	for _, h := range f.Hosts {
		select {
		case <-h.Replies:
			return false
		default:
		}
	}
	return true
}

// Stop retires f: closing stdin ends each host's session (its engines
// close and it exits), and hosts that linger past a grace are killed
// (5 s; 100 ms once a job failed, since the engines are wedged or dead
// already). Every host's replies are drained to their close, and the
// rendezvous directory is removed.
func (f *Fleet) Stop() {
	for _, h := range f.Hosts {
		h.Stdin.Close()
	}
	grace := 5 * time.Second
	if f.broken {
		grace = 100 * time.Millisecond
	}
	kill := time.AfterFunc(grace, func() {
		for _, h := range f.Hosts {
			h.Kill()
		}
	})
	for _, h := range f.Hosts {
		h.Wait()
	}
	kill.Stop()
	os.RemoveAll(f.dir)
}

// attemptError is a failed fleet attempt: every host and rank that
// failed, and the suspects, the hosts whose death looks like the root
// cause (an injected kill, or a nonzero exit with no terminal reply by a
// host that was not killed as a survivor).
type attemptError struct {
	suspects []int
	stopped  bool
	lines    []string
}

func (e *attemptError) Error() string {
	head := "job failed on the fleet"
	if e.stopped {
		head = ErrOperatorStop.Error()
	}
	return fmt.Sprintf("dist: %s:\n  %s", head, strings.Join(e.lines, "\n  "))
}

// Unwrap makes an operator stop errors.Is ErrOperatorStop.
func (e *attemptError) Unwrap() error {
	if e.stopped {
		return ErrOperatorStop
	}
	return nil
}

// Supervisor is the one recovery policy: it runs attempts of one job,
// each on a fleet of its own, until one succeeds. Restarting every host
// (not just a dead one) keeps recovery consistent: survivors cannot roll
// back to a rejoiner's phase, so everyone restarts from one phase
// boundary, the last checkpoint if there is one.
type Supervisor struct {
	// Nodes is the job's logical rank count, and the first attempt's
	// host-process count.
	Nodes int
	// Retries is the restart budget: attempts after the first.
	Retries int
	// Deadline, if set, bounds the retries: none starts whose backoff
	// would end past it.
	Deadline time.Time
	// OnRetry, if non-nil, is called before each retry with its attempt
	// number (1-based), its host-process count and the failure that
	// caused it.
	OnRetry func(attempt, procs int, cause error)
}

// Run calls attempt until it succeeds, the budget is spent, an operator
// stop ends it or the deadline is near, and returns the last attempt's
// results and error. Failures are blamed on the suspect hosts the
// attempt's error names: a host blamed hostBlame times is permanently
// dead, and the next attempt runs on one host process fewer (the same
// logical ranks, block-hosted), down to a floor of 1, where the error
// says so. Between attempts it sleeps retryDelay.
func (s Supervisor) Run(attempt func(n, procs int) ([]NodeResult, error)) ([]NodeResult, error) {
	procs := s.Nodes
	blame := make([]int, procs)
	for n := 0; ; n++ {
		results, err := attempt(n, procs)
		if err == nil || n >= s.Retries || errors.Is(err, ErrOperatorStop) {
			return results, err
		}
		var ae *attemptError
		if errors.As(err, &ae) {
			for _, p := range ae.suspects {
				blame[p]++
			}
		}
		for p, b := range blame {
			if b < hostBlame {
				continue
			}
			if procs == 1 {
				return results, fmt.Errorf("dist: host %d is permanently dead and the fleet is at its floor of 1 host process: %w", p, err)
			}
			// Host indexes re-map under the new block hosting, so stale
			// blame would land on the wrong process.
			procs--
			blame = make([]int, procs)
			break
		}
		d, ok := retryDelay(n+1, rand.Float64(), time.Now(), s.Deadline)
		if !ok {
			return results, err
		}
		if s.OnRetry != nil {
			s.OnRetry(n+1, procs, err)
		}
		time.Sleep(d)
	}
}

// retryDelay is the one backoff rule: the wait before retry n (1-based)
// is retryBase doubled n-1 times plus u (jitter in [0, 1)) times half of
// that, capped at retryCap. ok is false when the wait, begun at now,
// would end past deadline (zero: none).
func retryDelay(n int, u float64, now, deadline time.Time) (d time.Duration, ok bool) {
	d = retryBase
	for i := 1; i < n && d < retryCap; i++ {
		d *= 2
	}
	d = min(d+time.Duration(u*float64(d/2)), retryCap)
	return d, deadline.IsZero() || !now.Add(d).After(deadline)
}
