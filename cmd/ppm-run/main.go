// Command ppm-run executes a single application run — one app, one
// programming model, one cluster shape — and prints the result summary
// and the run report. It is the quickest way to poke at the simulator
// interactively.
//
// With -distributed the run leaves the simulator entirely: ppm-run forks
// one ppm-node process per node on localhost, the processes connect into
// a TCP mesh, and the same application produces bit-identical results
// over real sockets (the report then counts real traffic, not modeled
// time).
//
// Usage:
//
//	ppm-run -app cg|colloc|nbody|jacobi|search [-model ppm|mpi] [-nodes 8] [-cores 4]
//	        [-no-bundling] [-no-overlap] [-no-readcache] [-static] [-smartmap]
//	        [-parallel] [-distributed [-node-bin path/to/ppm-node]]
//	        [-max-restarts N] [-checkpoint-dir DIR [-checkpoint-every K]]
//	        [-hb-interval D] [-hb-timeout D] [-op-timeout D]
//	        [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	        [app-specific flags, see -h]
//
// With -max-restarts the distributed launcher supervises the fleet: when
// a rank dies the survivors self-abort (failure detector), everything is
// relaunched, and — with -checkpoint-dir — the new fleet resumes from
// the last checkpoint every rank completed, bit-identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
	"ppm/internal/machine"
	"ppm/internal/trace"
)

// startProfiles arms the optional pprof outputs and returns the function
// that finalizes them (stops the CPU profile, snapshots the heap).
func startProfiles(cpu, mem string) func() {
	var stopCPU func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppm-run: ")

	app := flag.String("app", "cg", "application: cg, colloc, nbody, jacobi, search")
	model := flag.String("model", "ppm", "programming model: ppm or mpi")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	cores := flag.Int("cores", 4, "cores per node")
	noBundling := flag.Bool("no-bundling", false, "disable remote-access bundling (PPM)")
	noOverlap := flag.Bool("no-overlap", false, "disable comm/compute overlap (PPM)")
	noReadCache := flag.Bool("no-readcache", false, "disable the node-level read cache (PPM)")
	static := flag.Bool("static", false, "static VP-to-core schedule (PPM)")
	smartMap := flag.Bool("smartmap", false, "enable SmartMap-style intra-node MPI optimization")
	timeline := flag.Bool("timeline", false, "print a communication summary and per-rank timeline (PPM runs)")
	parallel := flag.Bool("parallel", false, "run the simulator on the parallel host scheduler (bit-identical results)")
	distributed := flag.Bool("distributed", false, "run as real node processes over loopback TCP instead of the simulator (PPM)")
	nodeBin := flag.String("node-bin", "", "ppm-node binary for -distributed (default: next to this binary, else $PATH)")
	maxRestarts := flag.Int("max-restarts", 0, "distributed: relaunch the fleet up to this many times after a rank failure")
	ckptDir := flag.String("checkpoint-dir", "", "distributed: write phase-boundary checkpoints here; restarts resume from them")
	ckptEvery := flag.Int("checkpoint-every", 0, "distributed: minimum committed global phases between checkpoints (default 1)")
	perRankRestarts := flag.Int("per-rank-restarts", 0, "distributed: declare a host permanently dead after it is blamed for this many consecutive failed attempts (default 2)")
	minNodes := flag.Int("min-nodes", 0, "distributed: never rescale the fleet below this many host processes (default 1)")
	wireCodec := flag.String("wire-codec", "", "distributed: commit-stream encoding to offer peers (raw or delta; node default raw)")
	hbInterval := flag.Duration("hb-interval", 0, "distributed: failure-detector probe interval (node default 500ms, negative disables)")
	hbTimeout := flag.Duration("hb-timeout", 0, "distributed: declare a silent peer dead after this long (node default 5s)")
	opTimeout := flag.Duration("op-timeout", 0, "distributed: deadline for one remote read or commit wait (node default 60s)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	specPath := flag.String("spec", "", "run the job described by this jobspec JSON file (app/model flags are ignored)")
	jsonOut := flag.Bool("json", false, "with -spec: print the flattened jobspec result as one JSON line")
	timeout := flag.Duration("timeout", 0, "abort the run past this wall-clock bound (distributed: the engine deadline names the rank and in-flight operation)")

	cgGrid := flag.String("cg-grid", "24x24x48", "cg: grid NXxNYxNZ")
	cgIters := flag.Int("cg-iters", 20, "cg: iterations (tol=0)")
	collocLevels := flag.Int("colloc-levels", 7, "colloc: levels")
	collocM0 := flag.Int("colloc-m0", 12, "colloc: level-0 basis count")
	bhN := flag.Int("bh-n", 3000, "nbody: bodies")
	bhSteps := flag.Int("bh-steps", 2, "nbody: steps")
	jacGrid := flag.String("jacobi-grid", "24x24x48", "jacobi: grid NXxNYxNZ")
	jacSweeps := flag.Int("jacobi-sweeps", 10, "jacobi: sweeps")
	searchN := flag.Int("search-n", 1<<20, "search: sorted array length")
	searchK := flag.Int("search-k", 1<<14, "search: keys per node")
	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	if *specPath != "" {
		runSpec(*specPath, *jsonOut, *nodeBin, launchCfg{
			maxRestarts: *maxRestarts, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			perRankRestarts: *perRankRestarts, minNodes: *minNodes,
		}, *timeout)
		return
	}
	if *timeout > 0 && !*distributed {
		// Simulator watchdog. Distributed runs instead forward a
		// per-rank engine deadline, whose abort names the rank and the
		// in-flight operation.
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "ppm-run: run exceeded -timeout %v\n", *timeout)
			os.Exit(1)
		})
	}

	if *distributed {
		if *model != "ppm" {
			exitOn(fmt.Errorf("-distributed runs the PPM runtime; use -model ppm"))
		}
		// Forward the app and ablation selection verbatim to every node
		// process; ppm-node resolves them into the same Params this
		// binary would use, so the two paths stay comparable.
		args := []string{
			"-app", *app,
			"-cores", strconv.Itoa(*cores),
			"-cg-grid", *cgGrid, "-cg-iters", strconv.Itoa(*cgIters),
			"-colloc-levels", strconv.Itoa(*collocLevels), "-colloc-m0", strconv.Itoa(*collocM0),
			"-bh-n", strconv.Itoa(*bhN), "-bh-steps", strconv.Itoa(*bhSteps),
			"-jacobi-grid", *jacGrid, "-jacobi-sweeps", strconv.Itoa(*jacSweeps),
			"-search-n", strconv.Itoa(*searchN), "-search-k", strconv.Itoa(*searchK),
		}
		for _, f := range []struct {
			on   bool
			name string
		}{{*noBundling, "-no-bundling"}, {*noOverlap, "-no-overlap"}, {*noReadCache, "-no-readcache"}, {*static, "-static"}} {
			if f.on {
				args = append(args, f.name)
			}
		}
		if *wireCodec != "" {
			args = append(args, "-wire-codec", *wireCodec)
		}
		for _, d := range []struct {
			v    time.Duration
			name string
		}{{*hbInterval, "-hb-interval"}, {*hbTimeout, "-hb-timeout"}, {*opTimeout, "-op-timeout"},
			{*timeout, "-job-deadline"}} {
			if d.v != 0 {
				args = append(args, d.name, d.v.String())
			}
		}
		runDistributed(*app, *nodes, *nodeBin, args, launchCfg{
			maxRestarts: *maxRestarts, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			perRankRestarts: *perRankRestarts, minNodes: *minNodes,
		}, distParams{
			cgGrid: *cgGrid, cgIters: *cgIters,
			collocLevels: *collocLevels, collocM0: *collocM0,
			bhN: *bhN, bhSteps: *bhSteps,
			jacGrid: *jacGrid, jacSweeps: *jacSweeps,
			searchN: *searchN, searchK: *searchK,
		})
		return
	}

	mach := machine.Franklin()
	mach.SmartMap = *smartMap
	popt := core.Options{
		Nodes:          *nodes,
		CoresPerNode:   *cores,
		Machine:        mach,
		NoBundling:     *noBundling,
		NoOverlap:      *noOverlap,
		NoReadCache:    *noReadCache,
		StaticSchedule: *static,
		Parallel:       *parallel,
	}
	var collector *trace.Collector
	if *timeline {
		collector = trace.NewCollector()
		popt.Observer = collector.Observer()
		defer func() {
			fmt.Println()
			fmt.Print(collector.Summarize())
			fmt.Print(collector.Timeline(72))
		}()
	}

	switch *app {
	case "cg":
		var nx, ny, nz int
		if _, err := fmt.Sscanf(*cgGrid, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			log.Fatalf("bad -cg-grid %q", *cgGrid)
		}
		prm := cg.Params{NX: nx, NY: ny, NZ: nz, MaxIter: *cgIters, Tol: 0}
		if *model == "mpi" {
			res, rep, err := cg.RunMPI(cg.MPIOptions{Nodes: *nodes, CoresPerNode: *cores, Machine: mach, Parallel: *parallel}, prm)
			exitOn(err)
			fmt.Printf("cg/mpi: %d iterations, residual %.3e\n%v\n", res.Iters, res.Residual, rep)
			return
		}
		res, rep, err := cg.RunPPM(popt, prm)
		exitOn(err)
		fmt.Printf("cg/ppm: %d iterations, residual %.3e\n%v\n", res.Iters, res.Residual, rep)

	case "colloc":
		prm := colloc.Params{Levels: *collocLevels, M0: *collocM0, Delta: 3}
		if *model == "mpi" {
			m, rep, err := colloc.RunMPI(colloc.MPIOptions{Nodes: *nodes, CoresPerNode: *cores, Machine: mach, Parallel: *parallel}, prm)
			exitOn(err)
			fmt.Printf("colloc/mpi: %d x %d matrix, %d nonzeros\n%v\n", m.N, m.N, m.NNZ(), rep)
			return
		}
		m, rep, err := colloc.RunPPM(popt, prm)
		exitOn(err)
		fmt.Printf("colloc/ppm: %d x %d matrix, %d nonzeros\n%v\n", m.N, m.N, m.NNZ(), rep)

	case "nbody":
		prm := nbody.Params{N: *bhN, Steps: *bhSteps, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 42}
		if *model == "mpi" {
			_, rep, err := nbody.RunMPI(nbody.MPIOptions{Nodes: *nodes, CoresPerNode: *cores, Machine: mach, Parallel: *parallel}, prm)
			exitOn(err)
			fmt.Printf("nbody/mpi: %d bodies, %d steps\n%v\n", prm.N, prm.Steps, rep)
			return
		}
		_, rep, err := nbody.RunPPM(popt, prm)
		exitOn(err)
		fmt.Printf("nbody/ppm: %d bodies, %d steps\n%v\n", prm.N, prm.Steps, rep)

	case "jacobi":
		var nx, ny, nz int
		if _, err := fmt.Sscanf(*jacGrid, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			log.Fatalf("bad -jacobi-grid %q", *jacGrid)
		}
		prm := jacobi.Params{NX: nx, NY: ny, NZ: nz, Sweeps: *jacSweeps}
		if *model == "mpi" {
			_, rep, err := jacobi.RunMPI(jacobi.MPIOptions{Nodes: *nodes, CoresPerNode: *cores, Machine: mach, Parallel: *parallel}, prm)
			exitOn(err)
			fmt.Printf("jacobi/mpi: %dx%dx%d grid, %d sweeps\n%v\n", nx, ny, nz, prm.Sweeps, rep)
			return
		}
		_, rep, err := jacobi.RunPPM(popt, prm)
		exitOn(err)
		fmt.Printf("jacobi/ppm: %dx%dx%d grid, %d sweeps\n%v\n", nx, ny, nz, prm.Sweeps, rep)

	case "search":
		if *model == "mpi" {
			log.Fatal("search has no message-passing variant (it is the paper's PPM code example)")
		}
		prm := search.Params{N: *searchN, K: *searchK, Seed: 42}
		_, rep, err := search.RunPPM(popt, prm)
		exitOn(err)
		fmt.Printf("search/ppm: %d keys/node in array of %d\n%v\n", prm.K, prm.N, rep)

	default:
		fmt.Fprintf(os.Stderr, "ppm-run: unknown -app %q (want cg, colloc, nbody, jacobi, search)\n", *app)
		os.Exit(2)
	}
}

// distParams carries the app-parameter flags into the distributed path so
// the launcher can rebuild the same AppSpec the node processes use.
type distParams struct {
	cgGrid       string
	cgIters      int
	collocLevels int
	collocM0     int
	bhN          int
	bhSteps      int
	jacGrid      string
	jacSweeps    int
	searchN      int
	searchK      int
}

// spec resolves the flags into the AppSpec ppm-node will derive from the
// same arguments (Merge needs it to reassemble fragments).
func (d distParams) spec(app string) (dist.AppSpec, error) {
	spec := dist.AppSpec{App: app}
	parseGrid := func(flagName, s string) (nx, ny, nz int, err error) {
		if _, err = fmt.Sscanf(s, "%dx%dx%d", &nx, &ny, &nz); err != nil {
			err = fmt.Errorf("bad %s %q", flagName, s)
		}
		return
	}
	switch app {
	case "cg":
		nx, ny, nz, err := parseGrid("-cg-grid", d.cgGrid)
		if err != nil {
			return spec, err
		}
		spec.CG = cg.Params{NX: nx, NY: ny, NZ: nz, MaxIter: d.cgIters, Tol: 0}
	case "colloc":
		spec.Colloc = colloc.Params{Levels: d.collocLevels, M0: d.collocM0, Delta: 3}
	case "nbody":
		spec.Nbody = nbody.Params{N: d.bhN, Steps: d.bhSteps, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 42}
	case "jacobi":
		nx, ny, nz, err := parseGrid("-jacobi-grid", d.jacGrid)
		if err != nil {
			return spec, err
		}
		spec.Jacobi = jacobi.Params{NX: nx, NY: ny, NZ: nz, Sweeps: d.jacSweeps}
	case "search":
		spec.Search = search.Params{N: d.searchN, K: d.searchK, Seed: 42}
	default:
		return spec, fmt.Errorf("unknown -app %q (want cg, colloc, nbody, jacobi, search)", app)
	}
	return spec, nil
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

// launchCfg carries the supervision flags into the distributed path.
type launchCfg struct {
	maxRestarts     int
	ckptDir         string
	ckptEvery       int
	perRankRestarts int
	minNodes        int
}

// launchOpts builds the shared supervision options, including the
// elastic-rescale callbacks that narrate restarts and shrinks.
func (lc launchCfg) launchOpts() dist.LaunchOpts {
	return dist.LaunchOpts{
		MaxRestarts: lc.maxRestarts, CheckpointDir: lc.ckptDir, CheckpointEvery: lc.ckptEvery,
		PerRankRestarts: lc.perRankRestarts, MinNodes: lc.minNodes,
		OnRestart: func(attempt int, cause error) {
			fmt.Fprintf(os.Stderr, "ppm-run: supervisor: relaunching fleet (attempt %d) after: %v\n", attempt, cause)
		},
		OnRescale: func(procs int, cause error) {
			fmt.Fprintf(os.Stderr, "ppm-run: supervisor: host permanently dead; rescaling fleet to %d host processes after: %v\n", procs, cause)
		},
	}
}

// runDistributed forks one ppm-node per node over loopback TCP, merges
// the per-rank results, and prints the same summary the simulator path
// would. With -max-restarts the launcher supervises: a failed fleet is
// relaunched (resuming from -checkpoint-dir when set) until an attempt
// succeeds or the budget is spent.
func runDistributed(app string, nodes int, nodeBin string, nodeArgs []string, lc launchCfg, d distParams) {
	spec, err := d.spec(app)
	exitOn(err)
	bin, err := findNodeBin(nodeBin)
	exitOn(err)
	lo := lc.launchOpts()
	lo.Nodes, lo.NodeBin, lo.NodeArgs = nodes, bin, nodeArgs
	results, err := dist.LaunchLocal(lo)
	exitOn(err)
	m, err := dist.Merge(spec, results)
	exitOn(err)
	rep := &core.Report{PerNode: m.PerNode, Totals: m.Totals}
	switch app {
	case "cg":
		fmt.Printf("cg/ppm-dist: %d iterations, residual %.3e\n%v\n", m.CG.Iters, m.CG.Residual, rep)
	case "colloc":
		fmt.Printf("colloc/ppm-dist: %d x %d matrix, %d nonzeros\n%v\n", m.Colloc.N, m.Colloc.N, m.Colloc.NNZ(), rep)
	case "nbody":
		fmt.Printf("nbody/ppm-dist: %d bodies, %d steps\n%v\n", spec.Nbody.N, spec.Nbody.Steps, rep)
	case "jacobi":
		fmt.Printf("jacobi/ppm-dist: %dx%dx%d grid, %d sweeps\n%v\n",
			spec.Jacobi.NX, spec.Jacobi.NY, spec.Jacobi.NZ, spec.Jacobi.Sweeps, rep)
	case "search":
		fmt.Printf("search/ppm-dist: %d keys/node in array of %d\n%v\n", spec.Search.K, spec.Search.N, rep)
	}
}

// runSpec executes a jobspec file: sim and parallel backends run
// in-process, the dist backend launches a loopback fleet whose nodes run
// the same spec via -spec-json. The flattened result prints as one JSON
// line with -json (the server and the equivalence harness diff that
// form), else as the usual human summary. A -timeout without a spec
// deadline becomes the job's deadline_ms, so distributed overruns tear
// the fleet down with the rank and in-flight operation named.
func runSpec(path string, jsonOut bool, nodeBin string, lc launchCfg, timeout time.Duration) {
	data, err := os.ReadFile(path)
	exitOn(err)
	var s jobspec.Spec
	if err := json.Unmarshal(data, &s); err != nil {
		exitOn(fmt.Errorf("parsing -spec %s: %v", path, err))
	}
	s.Normalize()
	exitOn(s.Validate())
	if timeout > 0 && s.DeadlineMS == 0 {
		s.DeadlineMS = timeout.Milliseconds()
	}
	var res *jobspec.Result
	if s.Backend == jobspec.BackendDist {
		bin, err := findNodeBin(nodeBin)
		exitOn(err)
		payload, err := json.Marshal(&s)
		exitOn(err)
		lo := lc.launchOpts()
		lo.Nodes, lo.NodeBin = s.Nodes, bin
		lo.NodeArgs = []string{"-spec-json", string(payload)}
		results, err := dist.LaunchLocal(lo)
		exitOn(err)
		m, err := dist.Merge(s.AppSpec(), results)
		exitOn(err)
		res, err = jobspec.FromMerged(&s, m)
		exitOn(err)
	} else {
		if timeout > 0 {
			time.AfterFunc(timeout, func() {
				fmt.Fprintf(os.Stderr, "ppm-run: run exceeded -timeout %v\n", timeout)
				os.Exit(1)
			})
		}
		res, err = jobspec.RunLocal(&s)
		exitOn(err)
	}
	if jsonOut {
		out, err := json.Marshal(res)
		exitOn(err)
		fmt.Println(string(out))
		return
	}
	fmt.Printf("%s [job %s]\n%v\n", res.Summary, res.Hash, &core.Report{PerNode: res.PerNode, Totals: res.Totals})
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
