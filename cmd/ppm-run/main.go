// Command ppm-run executes a single application run — one app, one
// programming model, one cluster shape — and prints the result summary
// and the run report. It is the quickest way to poke at the simulator
// interactively.
//
// Every run is one jobspec.Spec: read from -spec, or built from -app,
// the shape and ablation flags and the application's parameter flags
// (each application declares its own; -h lists them). A flag left at
// zero means its default, as an absent field does in a JSON spec.
//
// With -distributed (or a spec whose backend is dist) the run leaves the
// simulator entirely: ppm-run forks one ppm-node process per node on
// localhost and hands each the spec (-spec-json); the processes connect
// into a TCP mesh and the same application produces bit-identical
// results over real sockets (the report then counts real traffic, not
// modeled time).
//
// Usage:
//
//	ppm-run -app cg|colloc|nbody|jacobi|search|scatter | -spec job.json
//	        [-model ppm|mpi] [-nodes 8] [-cores 4]
//	        [-no-bundling] [-no-overlap] [-no-readcache] [-static] [-smartmap]
//	        [-parallel] [-timeline] [-json] [-timeout D]
//	        [-distributed [-node-bin path/to/ppm-node]] [-wire-codec raw|delta]
//	        [-max-restarts N] [-checkpoint-dir DIR [-checkpoint-every K]]
//	        [-hb-interval D] [-hb-timeout D] [-op-timeout D]
//	        [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	        [-cg-grid NXxNYxNZ] [-cg-iters N] [-colloc-levels N] [-colloc-m0 N]
//	        [-bh-n N] [-bh-steps N] [-jacobi-grid NXxNYxNZ] [-jacobi-sweeps N]
//	        [-search-n N] [-search-k N]
//	        [-scatter-n N] [-scatter-vps N] [-scatter-iters N] [-scatter-seed S]
//
// With -max-restarts the distributed launcher supervises the fleet: when
// a rank dies the survivors self-abort (failure detector), everything is
// relaunched, and — with -checkpoint-dir — the new fleet resumes from
// the last checkpoint every rank completed, bit-identically. A host
// process blamed for two failed attempts is permanently dead: the next
// attempt runs the same ranks on one process fewer, down to one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
	"ppm/internal/prof"
	"ppm/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppm-run: ")

	app := flag.String("app", "cg", "application: "+strings.Join(dist.AppNames(), ", "))
	model := flag.String("model", "ppm", "programming model: ppm or mpi")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	cores := flag.Int("cores", 4, "cores per node")
	noBundling := flag.Bool("no-bundling", false, "disable remote-access bundling (PPM)")
	noOverlap := flag.Bool("no-overlap", false, "disable comm/compute overlap (PPM)")
	noReadCache := flag.Bool("no-readcache", false, "disable the node-level read cache (PPM)")
	static := flag.Bool("static", false, "static VP-to-core schedule (PPM)")
	smartMap := flag.Bool("smartmap", false, "enable SmartMap-style intra-node MPI optimization")
	timeline := flag.Bool("timeline", false, "print a communication summary and per-rank timeline (PPM simulator runs)")
	parallel := flag.Bool("parallel", false, "run the simulator on the parallel host scheduler (bit-identical results)")
	distributed := flag.Bool("distributed", false, "run as real node processes over loopback TCP instead of the simulator (PPM)")
	nodeBin := flag.String("node-bin", "", "ppm-node binary for distributed runs (default: next to this binary, else $PATH)")
	var lo dist.LaunchOpts
	flag.IntVar(&lo.MaxRestarts, "max-restarts", 0, "distributed: relaunch the fleet up to this many times after a rank failure")
	flag.StringVar(&lo.CheckpointDir, "checkpoint-dir", "", "distributed: write phase-boundary checkpoints here; restarts resume from them")
	flag.IntVar(&lo.CheckpointEvery, "checkpoint-every", 0, "distributed: minimum committed global phases between checkpoints (default 1)")
	flag.String("wire-codec", "", "distributed: commit-stream encoding to offer peers (raw or delta; node default raw)")
	flag.Duration("hb-interval", 0, "distributed: failure-detector probe interval (node default 500ms, negative disables)")
	flag.Duration("hb-timeout", 0, "distributed: declare a silent peer dead after this long (node default 5s)")
	flag.Duration("op-timeout", 0, "distributed: deadline for one remote read or commit wait (node default 60s)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	specPath := flag.String("spec", "", "run the job described by this jobspec JSON file (-app, the shape, ablation and parameter flags are ignored; -distributed or -parallel picks its backend)")
	jsonOut := flag.Bool("json", false, "print the flattened jobspec result as one JSON line")
	timeout := flag.Duration("timeout", 0, "abort the run past this wall-clock bound (distributed: the job deadline, whose abort names the rank and in-flight operation)")
	pick := jobspec.Flags(flag.CommandLine)
	flag.Parse()

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	// One job description whatever the command line looked like.
	var s *jobspec.Spec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		exitOn(err)
		s = new(jobspec.Spec)
		if err := json.Unmarshal(data, s); err != nil {
			exitOn(fmt.Errorf("parsing -spec %s: %v", *specPath, err))
		}
	} else {
		s = pick(*app)
		s.Nodes, s.Cores = *nodes, *cores
		s.NoBundling, s.NoOverlap, s.NoReadCache, s.Static = *noBundling, *noOverlap, *noReadCache, *static
	}
	switch {
	case *distributed:
		s.Backend = jobspec.BackendDist
	case *parallel:
		s.Backend = jobspec.BackendParallel
	}
	s.Normalize()
	exitOn(s.Validate())

	opt := s.Options()
	opt.Machine.SmartMap = *smartMap
	if *timeout > 0 && s.Backend != jobspec.BackendDist {
		// Simulator watchdog. A distributed run carries the bound in the
		// spec instead, as the job deadline every rank enforces.
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "ppm-run: run exceeded -timeout %v\n", *timeout)
			os.Exit(1)
		})
	}

	var res *jobspec.Result
	var rep fmt.Stringer
	var err error
	tag := "job " + s.Hash()
	switch {
	case s.Backend == jobspec.BackendDist:
		if *model != "ppm" {
			exitOn(fmt.Errorf("distributed runs use the PPM runtime; use -model ppm"))
		}
		if *timeout > 0 && s.DeadlineMS == 0 {
			s.DeadlineMS = timeout.Milliseconds()
		}
		// The spec is the whole job; the transport flags that were set
		// are the only other thing a node is told.
		for _, name := range []string{"wire-codec", "hb-interval", "hb-timeout", "op-timeout"} {
			if f := flag.Lookup(name); f.Value.String() != f.DefValue {
				lo.NodeArgs = append(lo.NodeArgs, "-"+name, f.Value.String())
			}
		}
		res = runDistributed(s, *nodeBin, lo)
		rep = &core.Report{PerNode: res.PerNode, Totals: res.Totals}

	case *model == "mpi":
		var m *dist.Merged
		m, rep, err = dist.RunMPI(dist.MPIOptions{
			Nodes: opt.Nodes, CoresPerNode: opt.CoresPerNode, Machine: opt.Machine, Parallel: opt.Parallel,
		}, s.AppSpec())
		exitOn(err)
		res, err = jobspec.FromMerged(s, m)
		exitOn(err)
		// Not the job the hash names: the baseline of its application.
		tag, res.Hash, res.Backend = "mpi", "", "mpi"

	default:
		if *timeline {
			collector := trace.NewCollector()
			opt.Observer = collector.Observer()
			defer func() {
				fmt.Println()
				fmt.Print(collector.Summarize())
				fmt.Print(collector.Timeline(72))
			}()
		}
		res, rep, err = jobspec.Run(s, opt)
		exitOn(err)
	}

	if *jsonOut {
		out, err := json.Marshal(res)
		exitOn(err)
		fmt.Println(string(out))
		return
	}
	fmt.Printf("%s [%s]\n%v\n", res.Summary, tag, rep)
}

// findNodeBin locates the ppm-node binary: an explicit -node-bin wins,
// then a sibling of this executable, then $PATH.
func findNodeBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "ppm-node")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("ppm-node"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("ppm-node binary not found (build it with `go build ./cmd/ppm-node` and pass -node-bin, or put it next to ppm-run)")
}

// runDistributed forks one ppm-node per node over loopback TCP, each
// running the spec it is handed via -spec-json (ahead of lo's transport
// flags), and merges and flattens the per-rank results. With
// -max-restarts the launcher supervises: a failed fleet is relaunched
// (resuming from -checkpoint-dir when set) until an attempt succeeds or
// the budget is spent, and each relaunch is narrated on stderr.
func runDistributed(s *jobspec.Spec, nodeBin string, lo dist.LaunchOpts) *jobspec.Result {
	bin, err := findNodeBin(nodeBin)
	exitOn(err)
	payload, err := json.Marshal(s)
	exitOn(err)
	lo.Nodes, lo.NodeBin = s.Nodes, bin
	lo.NodeArgs = append([]string{"-spec-json", string(payload)}, lo.NodeArgs...)
	lo.OnRetry = func(attempt, procs int, cause error) {
		fmt.Fprintf(os.Stderr, "ppm-run: supervisor: relaunching fleet on %d host processes (attempt %d) after: %v\n", procs, attempt, cause)
	}
	results, err := dist.LaunchLocal(lo)
	exitOn(err)
	m, err := dist.Merge(s.AppSpec(), results)
	exitOn(err)
	res, err := jobspec.FromMerged(s, m)
	exitOn(err)
	return res
}

// exitOn reports a failed run on stderr — including the scheduler's full
// multi-line per-process deadlock diagnostics, which arrive embedded in
// the error — and exits non-zero. Every run path funnels through it, so
// a hang or crash is always attributable and never exits 0.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppm-run: run failed: %v\n", err)
		os.Exit(1)
	}
}
