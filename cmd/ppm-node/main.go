// Command ppm-node is one host process of a distributed PPM fleet: it
// hosts a logical rank (or a block of them), connects each to its peers
// over TCP, and runs jobs on them under the distributed runtime. It is
// normally started by `ppm-run -distributed` or by ppm-server's fleet
// pool, both through dist.LaunchOpts.StartHost, which assigns ranks and
// points every process at a shared rendezvous directory; it can be
// started by hand too (or by a process manager across real machines,
// with -listen and a shared -rendezvous path on a network filesystem).
//
// Usage:
//
//	ppm-node -rank R -nodes N -rendezvous DIR [-listen 127.0.0.1:0]
//	         [-procs P -proc J] [-run-id ID] [-connect-timeout 30s]
//	         [-hb-interval 500ms] [-hb-timeout 5s] [-op-timeout 60s]
//	         [-drain-timeout 10s] [-wire-codec raw|delta]
//	         [-checkpoint-dir DIR [-checkpoint-every K] [-restore | -restore-rescale]]
//	         -serve | -spec-json JSON
//	         | -app cg|colloc|nbody|jacobi|search|scatter [-cores 4]
//	           [-no-bundling] [-no-overlap] [-no-readcache] [-static]
//	           [the applications' parameter flags, as ppm-run lists them]
//
// One session, two job sources. Every launch runs one session over the
// engines it hosts, taking jobspec.NodeJob values from a channel. -serve
// fills it from newline-delimited NodeJob JSON on stdin until EOF (the
// protocol of ppm-server's fleet pool); any other launch puts in the one
// job that -spec-json (a jobspec.Spec, what ppm-run hands every node) or
// the app flags describe, and closes it. A job runs on every hosted rank
// at once, under a warm session keyed by its spec's hash (a repeated job
// on a long-lived fleet replays its recorded phase plans) and bounded by
// its spec's deadline_ms. A spec the node refuses fails that job only;
// an error during a run ends the session, since a distributed abort
// poisons the engines. Checkpoint files are keyed by rank and phase, not
// by job, so -serve with -checkpoint-dir is refused before connecting.
//
// One reply format. Everything on stdout is dist.NodeReply lines: rank 0
// reports each committed global phase, and each hosted rank ends each job
// with one terminal reply carrying its NodeResult (counters and its
// fragment of the output, or its error). A process that cannot start
// (ranks out of range, a spec that does not parse, a failed connect)
// answers with terminal error replies as well. Errors also go to stderr.
//
// One stop rule. SIGINT or SIGTERM aborts the job in flight on every
// hosted engine; its terminal replies are written, and the process exits
// dist.StopExitCode, which supervisors count as a stop rather than a
// crash. Otherwise the session ends when its jobs do, the hosted engines
// close together, and the process exits 1 if a job failed, else 0.
//
// A silent or crashed peer is detected by the engine's heartbeat/deadline
// machinery and aborts the run with an error naming the rank, rather than
// hanging. The PPM_FAULT environment variable injects deterministic
// faults for chaos testing (see internal/faultinject).
//
// Elastic hosting: with -procs P (< -nodes N) and -proc J, this process
// hosts the block of logical ranks partition.NewBlock(N, P).Range(J) —
// one engine, fault plan, and terminal reply per hosted rank, with -rank
// naming the first of them. The logical N-rank mesh is unchanged (some
// links are loopback), so results are bit-identical to native hosting;
// -restore-rescale additionally restores each hosted rank's own
// checkpoint from a full fleet's set, which is how the supervisor
// finishes a run after permanently losing a host.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/faultinject"
	"ppm/internal/jobspec"
	"ppm/internal/partition"
	"ppm/internal/wire"
)

func main() {
	rank := flag.Int("rank", -1, "this process's node id in [0, nodes)")
	nodes := flag.Int("nodes", 0, "total node processes in the run")
	rendezvous := flag.String("rendezvous", "", "shared directory where peers publish their listen addresses")
	listen := flag.String("listen", "", "TCP listen address (default 127.0.0.1:0)")
	connectTimeout := flag.Duration("connect-timeout", 30*time.Second, "deadline for the full mesh to come up")
	wireCodec := flag.String("wire-codec", "raw", "commit-stream encoding to offer peers: raw or delta")
	runID := flag.String("run-id", "", "launch identity tag; rendezvous files from other launches are ignored")
	hbInterval := flag.Duration("hb-interval", 0, "failure-detector probe interval on idle links (default 500ms, negative disables)")
	hbTimeout := flag.Duration("hb-timeout", 0, "declare a silent peer dead after this long (default 5s, negative disables)")
	opTimeout := flag.Duration("op-timeout", 0, "deadline for one remote read or commit wait (default 60s, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 0, "shutdown bye-exchange drain bound (default 10s)")
	ckptDir := flag.String("checkpoint-dir", "", "write phase-boundary checkpoints into this directory")
	ckptEvery := flag.Int("checkpoint-every", 0, "minimum committed global phases between checkpoints (default 1)")
	restore := flag.Bool("restore", false, "resume from the newest checkpoint all ranks hold in -checkpoint-dir")
	procs := flag.Int("procs", 0, "host processes in the fleet (default nodes; fewer procs host several logical ranks each)")
	proc := flag.Int("proc", -1, "this process's host index in [0, procs) (default rank)")
	restoreRescale := flag.Bool("restore-rescale", false, "restore the full fleet's checkpoints into this rescaled hosting (implies -restore)")

	serve := flag.Bool("serve", false, "take jobs from stdin (jobspec.NodeJob lines) until EOF or an operator stop")
	specJSON := flag.String("spec-json", "", "run one job described by this jobspec JSON instead of the app flags")

	app := flag.String("app", "cg", "application: "+strings.Join(dist.AppNames(), ", "))
	cores := flag.Int("cores", 4, "cores per node (VP scheduling width)")
	noBundling := flag.Bool("no-bundling", false, "disable remote-access bundling counters")
	noOverlap := flag.Bool("no-overlap", false, "disable comm/compute overlap counters")
	noReadCache := flag.Bool("no-readcache", false, "disable the node-level read cache")
	static := flag.Bool("static", false, "static VP-to-core schedule")
	pick := jobspec.Flags(flag.CommandLine)
	flag.Parse()

	h := &host{ranks: []int{*rank}, nodes: *nodes, reply: replyTo(os.Stdout)}
	fail := func(err error) {
		h.answer("", err)
		os.Exit(1)
	}

	if *nodes <= 0 || *rank < 0 || *rank >= *nodes {
		fail(fmt.Errorf("need -rank in [0, nodes) and -nodes > 0, got rank=%d nodes=%d", *rank, *nodes))
	}
	// Elastic hosting: a fleet of -nodes logical ranks squeezed onto
	// -procs host processes, block-partitioned so host J runs ranks
	// NewBlock(nodes, procs).Range(J). Native 1:1 hosting is the
	// degenerate case procs == nodes, proc == rank.
	if *procs <= 0 {
		*procs = *nodes
	}
	if *proc < 0 {
		*proc = *rank
	}
	if *procs > *nodes || *proc >= *procs {
		fail(fmt.Errorf("need -proc in [0, procs) and -procs in [1, nodes], got proc=%d procs=%d nodes=%d", *proc, *procs, *nodes))
	}
	hostLo, hostHi := partition.NewBlock(*nodes, *procs).Range(*proc)
	if *rank != hostLo {
		fail(fmt.Errorf("-rank %d is not host %d's first hosted rank (%d)", *rank, *proc, hostLo))
	}
	h.ranks = h.ranks[:0]
	for r := hostLo; r < hostHi; r++ {
		h.ranks = append(h.ranks, r)
	}
	if *ckptDir != "" {
		if *serve {
			fail(fmt.Errorf("-checkpoint-dir cannot be used with -serve: checkpoint files are keyed by rank and phase, not by job"))
		}
		h.ckpt = &core.CheckpointConfig{Dir: *ckptDir, EveryPhases: *ckptEvery, Restore: *restore || *restoreRescale}
		if *procs < *nodes {
			h.ckpt.HostProcs, h.ckpt.HostProc = *procs, *proc
		}
	}

	// The session's jobs: stdin's, or the one the command line describes.
	var jobs <-chan jobspec.NodeJob
	if *serve {
		jobs = readJobs(os.Stdin)
	} else {
		js := new(jobspec.Spec)
		if *specJSON != "" {
			if err := json.Unmarshal([]byte(*specJSON), js); err != nil {
				fail(fmt.Errorf("-spec-json: %v", err))
			}
		} else {
			js = pick(*app)
			js.Nodes, js.Cores = *nodes, *cores
			js.NoBundling, js.NoOverlap, js.NoReadCache, js.Static = *noBundling, *noOverlap, *noReadCache, *static
		}
		one := make(chan jobspec.NodeJob, 1)
		one <- jobspec.NodeJob{Spec: *js}
		close(one)
		jobs = one
	}

	codec, err := wire.ParseCodec(*wireCodec)
	if err != nil {
		fail(fmt.Errorf("-wire-codec: %v", err))
	}

	// Connect every hosted rank's engine concurrently: mesh formation
	// needs all N listeners up, including the ones that live in this
	// process. Each rank gets its own fault plan (PPM_FAULT carries the
	// spec, PPM_FAULT_ATTEMPT the supervisor's relaunch count; killhost=
	// items key on this process's -proc index).
	h.engs = make([]*dist.Engine, len(h.ranks))
	connErrs := make([]error, len(h.ranks))
	var wg sync.WaitGroup
	for i, r := range h.ranks {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			plan, err := faultinject.FromEnvHost(r, *proc)
			if err != nil {
				connErrs[i] = err
				return
			}
			h.engs[i], connErrs[i] = dist.Connect(dist.Config{
				Rank:              r,
				Nodes:             *nodes,
				RendezvousDir:     *rendezvous,
				ListenAddr:        *listen,
				Codec:             codec,
				ConnectTimeout:    *connectTimeout,
				RunID:             *runID,
				HeartbeatInterval: *hbInterval,
				HeartbeatTimeout:  *hbTimeout,
				OpTimeout:         *opTimeout,
				DrainTimeout:      *drainTimeout,
				Faults:            plan,
			})
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(connErrs...); err != nil {
		fail(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(h.session(jobs, sig))
}

// host is what this process runs jobs on: its logical ranks, one engine
// and one warm session each.
type host struct {
	ranks []int
	nodes int
	engs  []*dist.Engine
	warm  []*core.WarmSession
	ckpt  *core.CheckpointConfig // per launch, never per job; nil under -serve
	reply func(dist.NodeReply)
}

// replyTo returns a writer of NodeReply lines to w, safe to call from
// every hosted rank at once. A terminal reply that does not encode is
// replaced by one carrying the encoding error, so the launcher still
// hears from the rank, and learns why its result is missing.
func replyTo(w io.Writer) func(dist.NodeReply) {
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	return func(r dist.NodeReply) {
		mu.Lock()
		defer mu.Unlock()
		err := enc.Encode(r)
		if err == nil || !r.Done || r.Result == nil {
			return
		}
		err = fmt.Errorf("reply does not encode: %w", err)
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: %v\n", r.Result.Rank, err)
		enc.Encode(dist.NodeReply{ID: r.ID, Done: true, Result: &dist.NodeResult{Rank: r.Result.Rank, Err: err.Error()}})
	}
}

// answer ends job id with err on every hosted rank.
func (h *host) answer(id string, err error) {
	for _, r := range h.ranks {
		h.reply(dist.NodeReply{ID: id, Done: true, Result: &dist.NodeResult{Rank: r, Err: err.Error()}})
	}
	fmt.Fprintf(os.Stderr, "ppm-node[%d]: %v\n", h.ranks[0], err)
}

// readJobs feeds the NodeJob lines of r to the session, and closes the
// channel at EOF or at a line that does not decode.
func readJobs(r io.Reader) <-chan jobspec.NodeJob {
	jobs := make(chan jobspec.NodeJob)
	go func() {
		defer close(jobs)
		dec := json.NewDecoder(r)
		for {
			var j jobspec.NodeJob
			if dec.Decode(&j) != nil {
				return
			}
			jobs <- j
		}
	}()
	return jobs
}

// session runs jobs one at a time until the channel closes, a run fails
// or an operator signal arrives, closes the hosted engines together, and
// returns the process's exit status.
func (h *host) session(jobs <-chan jobspec.NodeJob, sig <-chan os.Signal) int {
	stopped := make(chan struct{})
	go func() {
		s := <-sig
		close(stopped) // before the aborts, so a job they end reads as stopped
		for _, eng := range h.engs {
			eng.Abort(fmt.Errorf("operator stop (%v)", s))
		}
	}()
	h.warm = make([]*core.WarmSession, len(h.engs))
	for i := range h.warm {
		h.warm[i] = core.NewWarmSession()
	}
	failed := false
	for {
		var j jobspec.NodeJob
		ok := false
		select {
		case <-stopped:
		case j, ok = <-jobs:
		}
		if !ok {
			break
		}
		refused, runErr := h.run(j)
		failed = failed || refused || runErr
		if runErr {
			break // the engines may be poisoned: no further job can run
		}
	}

	// Close every hosted engine at once: Close waits for a Bye from each
	// peer, co-hosted ranks included, so closing in turn would sit out
	// the drain timeout once per rank.
	errs := make([]error, len(h.engs))
	var wg sync.WaitGroup
	for i, eng := range h.engs {
		h.warm[i].Discard()
		wg.Add(1)
		go func(i int, eng *dist.Engine) {
			defer wg.Done()
			errs[i] = eng.Close()
		}(i, eng)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: close: %v\n", h.ranks[0], err)
		failed = true
	}
	select {
	case <-stopped:
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: stopped by operator\n", h.ranks[0])
		return dist.StopExitCode
	default:
	}
	if failed {
		return 1
	}
	return 0
}

// run runs one job on every hosted rank at once (they are peers in one
// phase-synchronized mesh, so they advance together, not in turn) and
// writes each rank's terminal reply. refused reports a spec this fleet
// cannot run, which touched no engine; runErr a failed run.
func (h *host) run(j jobspec.NodeJob) (refused, runErr bool) {
	spec := j.Spec
	spec.Normalize()
	err := spec.Validate()
	if err == nil && spec.Nodes != h.nodes {
		err = fmt.Errorf("job wants %d nodes but this fleet has %d", spec.Nodes, h.nodes)
	}
	if err != nil {
		h.answer(j.ID, err)
		return true, false
	}
	opt := spec.Options()
	// The node always runs the distributed runtime, whatever backend the
	// spec names for local execution.
	opt.Parallel = false
	opt.Checkpoint = h.ckpt
	key, app := spec.Hash(), spec.AppSpec()
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, eng := range h.engs {
		wg.Add(1)
		go func(i int, eng *dist.Engine) {
			defer wg.Done()
			o := opt
			h.warm[i].SetKey(key)
			o.Warm = h.warm[i]
			if h.ranks[i] == 0 {
				o.OnPhase = func(ph int64) { h.reply(dist.NodeReply{ID: j.ID, Phase: ph}) }
			}
			cancel := eng.StartJobDeadline(deadline)
			res := dist.RunApp(eng, o, app)
			cancel()
			h.reply(dist.NodeReply{ID: j.ID, Done: true, Result: res})
			if res.Err != "" {
				fmt.Fprintf(os.Stderr, "ppm-node[%d]: %s\n", res.Rank, res.Err)
				failed.Store(true)
			}
		}(i, eng)
	}
	wg.Wait()
	return false, failed.Load()
}
