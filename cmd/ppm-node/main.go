// Command ppm-node is one node process of a distributed PPM run. It is
// normally forked by `ppm-run -distributed`, which assigns ranks, points
// every process at a shared rendezvous directory, and collects results —
// but it can be started by hand (or by a process manager across real
// machines, with -listen and a shared -rendezvous path on a network
// filesystem).
//
// The process connects to its peers over TCP, runs its share of the
// selected application under the distributed runtime, and prints a
// single-line JSON NodeResult on stdout: its runtime counters plus its
// fragment of the application output. Any failure is reported both in
// that JSON (so the launcher can attribute it to a rank) and on stderr,
// with a non-zero exit.
//
// Usage:
//
//	ppm-node -rank R -nodes N -rendezvous DIR [-listen 127.0.0.1:0]
//	         [-procs P -proc J [-restore-rescale]]
//	         [-run-id ID] [-hb-interval 500ms] [-hb-timeout 5s]
//	         [-op-timeout 60s] [-checkpoint-dir DIR [-checkpoint-every K] [-restore]]
//	         [-wire-codec raw|delta]
//	         -app cg|colloc|nbody|jacobi|search|scatter [-cores 4]
//	         [-no-bundling] [-no-overlap] [-no-readcache] [-static]
//	         [the applications' parameter flags, as ppm-run lists them]
//	         | -spec-json JSON | -serve
//
// A silent or crashed peer is detected by the engine's heartbeat/deadline
// machinery and aborts the run with an error naming the rank, rather than
// hanging. The PPM_FAULT environment variable injects deterministic
// faults for chaos testing (see internal/faultinject).
//
// Elastic hosting: with -procs P (< -nodes N) and -proc J, this process
// hosts the block of logical ranks partition.NewBlock(N, P).Range(J) —
// one engine, fault plan, and result line per hosted rank, with -rank
// naming the first of them. The logical N-rank mesh is unchanged (some
// links are loopback), so results are bit-identical to native hosting;
// -restore-rescale additionally restores each hosted rank's own
// checkpoint from a full fleet's set, which is how the supervisor
// finishes a run after permanently losing a host.
//
// Whatever the command line, the process runs a jobspec.Spec: the flag
// form above builds one from -app and the parameter flags the
// applications declare (a flag left at zero means its default) and is
// checked like any other. Two modes take the spec as it is:
//
//   - -spec-json JSON runs the jobspec.Spec it is given (app, params,
//     preset, ablations); every distributed ppm-run launch uses it.
//   - -serve turns the process into a long-lived worker: it reads
//     jobspec.NodeJob lines from stdin, runs each under the shared
//     engine with a keyed plan-cache session, and writes
//     jobspec.NodeReply lines to stdout (rank 0 also streams phase
//     progress). EOF on stdin drains and exits 0; ppm-server's fleet
//     pool speaks this protocol.
//
// SIGINT/SIGTERM request an operator stop: the process finishes (or
// aborts) the job in flight and exits with dist.StopExitCode so the
// supervisor knows not to count the stop as a crash.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

	serve := flag.Bool("serve", false, "serve mode: run jobspec jobs from stdin until EOF or an operator stop")
	specJSON := flag.String("spec-json", "", "run one job described by this jobspec JSON instead of the app flags")
	jobDeadline := flag.Duration("job-deadline", 0, "abort the run if it exceeds this wall-clock bound (0 disables)")

	app := flag.String("app", "cg", "application: "+strings.Join(dist.AppNames(), ", "))
	cores := flag.Int("cores", 4, "cores per node (VP scheduling width)")
	noBundling := flag.Bool("no-bundling", false, "disable remote-access bundling counters")
	noOverlap := flag.Bool("no-overlap", false, "disable comm/compute overlap counters")
	noReadCache := flag.Bool("no-readcache", false, "disable the node-level read cache")
	static := flag.Bool("static", false, "static VP-to-core schedule")
	pick := jobspec.Flags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		out, _ := json.Marshal(dist.NodeResult{Rank: *rank, Err: err.Error()})
		fmt.Println(string(out))
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: %v\n", *rank, err)
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
	hostedRanks := make([]int, 0, hostHi-hostLo)
	for r := hostLo; r < hostHi; r++ {
		hostedRanks = append(hostedRanks, r)
	}
	if *restoreRescale {
		*restore = true
	}
	// The job: the spec handed over, or the one the flags describe.
	var js *jobspec.Spec
	if *specJSON != "" {
		js = new(jobspec.Spec)
		if err := json.Unmarshal([]byte(*specJSON), js); err != nil {
			fail(fmt.Errorf("-spec-json: %v", err))
		}
	} else {
		js = pick(*app)
		js.Nodes, js.Cores = *nodes, *cores
		js.NoBundling, js.NoOverlap, js.NoReadCache, js.Static = *noBundling, *noOverlap, *noReadCache, *static
	}
	js.Normalize()
	if err := js.Validate(); err != nil {
		fail(err)
	}
	if js.Nodes != *nodes {
		fail(fmt.Errorf("-spec-json wants %d nodes but this fleet has %d", js.Nodes, *nodes))
	}
	spec := js.AppSpec()
	opt := js.Options()
	// The node always runs the distributed runtime, whatever backend the
	// spec names for local execution.
	opt.Parallel = false
	if *jobDeadline == 0 && js.DeadlineMS > 0 {
		*jobDeadline = time.Duration(js.DeadlineMS) * time.Millisecond
	}
	if *ckptDir != "" {
		cc := &core.CheckpointConfig{Dir: *ckptDir, EveryPhases: *ckptEvery, Restore: *restore}
		if *procs < *nodes {
			cc.HostProcs = *procs
			cc.HostProc = *proc
		}
		opt.Checkpoint = cc
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
	engs := make([]*dist.Engine, len(hostedRanks))
	{
		connErrs := make([]error, len(hostedRanks))
		var wg sync.WaitGroup
		for i, r := range hostedRanks {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				plan, err := faultinject.FromEnvHost(r, *proc)
				if err != nil {
					connErrs[i] = err
					return
				}
				engs[i], connErrs[i] = dist.Connect(dist.Config{
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
		for _, err := range connErrs {
			if err != nil {
				fail(err)
			}
		}
	}

	if *serve {
		serveJobs(engs, hostedRanks, *nodes)
		return // unreachable; serveJobs exits
	}

	// One-shot run. An operator signal aborts every hosted engine (so
	// every rank unblocks with an error naming the stop) and turns the
	// exit status into StopExitCode so the supervisor does not spend a
	// restart on it.
	var stopReq atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		stopReq.Store(true)
		for _, eng := range engs {
			eng.Abort(fmt.Errorf("operator stop (%v)", s))
		}
	}()
	results := make([]*dist.NodeResult, len(hostedRanks))
	var wg sync.WaitGroup
	for i := range hostedRanks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := engs[i]
			cancelDeadline := eng.StartJobDeadline(*jobDeadline)
			res := dist.RunApp(eng, opt, spec)
			cancelDeadline()
			if err := eng.Close(); err != nil && res.Err == "" {
				res.Err = err.Error()
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	// One NodeResult line per hosted rank, rank order: the supervisor
	// decodes the stream and routes each result by its Rank field.
	failed := false
	for _, res := range results {
		out, err := json.Marshal(res)
		if err != nil {
			fail(fmt.Errorf("encoding result: %v", err))
		}
		fmt.Println(string(out))
		if res.Err != "" {
			fmt.Fprintf(os.Stderr, "ppm-node[%d]: %s\n", res.Rank, res.Err)
			failed = true
		}
	}
	if stopReq.Load() {
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: stopped by operator\n", *rank)
		os.Exit(dist.StopExitCode)
	}
	if failed {
		os.Exit(1)
	}
}

// serveJobs is the long-lived worker loop behind -serve. Jobs arrive as
// jobspec.NodeJob lines on stdin and are run one at a time across every
// engine this process hosts (one per hosted rank); every reply (rank-0
// phase progress and each rank's terminal result) leaves as one
// jobspec.NodeReply line on stdout, routed downstream by Result.Rank.
// Each hosted rank keeps its own WarmSession keyed by the job's
// canonical spec hash, carrying the plan cache and the warm doRuns
// across identical submissions so repeat jobs skip the cold start.
// stdin EOF means the operator (the fleet pool) is done with this
// fleet: drain and exit 0. SIGINT/SIGTERM finish the job in flight and
// exit StopExitCode.
func serveJobs(engs []*dist.Engine, ranks []int, nodes int) {
	self := ranks[0]
	enc := json.NewEncoder(os.Stdout)
	var outMu sync.Mutex
	reply := func(r jobspec.NodeReply) {
		outMu.Lock()
		enc.Encode(r)
		outMu.Unlock()
	}

	jobs := make(chan jobspec.NodeJob)
	go func() {
		dec := json.NewDecoder(os.Stdin)
		for {
			var j jobspec.NodeJob
			if err := dec.Decode(&j); err != nil {
				close(jobs)
				return
			}
			jobs <- j
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	sessions := make([]*core.WarmSession, len(engs))
	for i := range sessions {
		sessions[i] = core.NewWarmSession()
	}
	exit := func(code int) {
		for i, eng := range engs {
			sessions[i].Discard()
			if err := eng.Close(); err != nil && code == 0 {
				fmt.Fprintf(os.Stderr, "ppm-node[%d]: close: %v\n", ranks[i], err)
				code = 1
			}
		}
		os.Exit(code)
	}
	for {
		select {
		case <-sigCh:
			fmt.Fprintf(os.Stderr, "ppm-node[%d]: stopped by operator\n", self)
			exit(dist.StopExitCode)
		case j, ok := <-jobs:
			if !ok {
				exit(0) // stdin EOF: orderly drain
			}
			// All hosted ranks run the job together — they are peers in
			// the same phase-synchronized mesh, so they must advance
			// concurrently, not in sequence.
			fatals := make([]bool, len(engs))
			var wg sync.WaitGroup
			for i := range engs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					fatals[i] = runServeJob(engs[i], sessions[i], ranks[i], nodes, j, reply)
				}(i)
			}
			wg.Wait()
			for _, fatal := range fatals {
				if fatal {
					// An engine is (or may be) fatally wounded; every
					// further job would fail. Exit non-zero so the pool
					// discards the fleet.
					fmt.Fprintf(os.Stderr, "ppm-node[%d]: job %s failed; retiring\n", self, j.ID)
					os.Exit(1)
				}
			}
		}
	}
}

// runServeJob runs one queued job and reports whether the fleet must be
// retired. Spec problems are job-local (the engine was never touched);
// run errors are treated as fatal because a distributed abort poisons
// the engine permanently.
func runServeJob(eng *dist.Engine, session *core.WarmSession, rank, nodes int, j jobspec.NodeJob, reply func(jobspec.NodeReply)) (fatal bool) {
	spec := j.Spec
	spec.Normalize()
	err := spec.Validate()
	if err == nil && spec.Nodes != nodes {
		err = fmt.Errorf("job wants %d nodes but this fleet has %d", spec.Nodes, nodes)
	}
	if err != nil {
		reply(jobspec.NodeReply{ID: j.ID, Done: true, Result: &dist.NodeResult{Rank: rank, Err: err.Error()}})
		return false
	}
	opt := spec.Options()
	opt.Parallel = false
	session.SetKey(spec.Hash())
	opt.Warm = session
	if rank == 0 {
		id := j.ID
		opt.OnPhase = func(ph int64) {
			reply(jobspec.NodeReply{ID: id, Phase: ph})
		}
	}
	cancel := eng.StartJobDeadline(time.Duration(spec.DeadlineMS) * time.Millisecond)
	res := dist.RunApp(eng, opt, spec.AppSpec())
	cancel()
	reply(jobspec.NodeReply{ID: j.ID, Done: true, Result: res})
	return res.Err != ""
}
