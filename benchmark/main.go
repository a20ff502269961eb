// Command benchmark is this repository's one benchmark: four workloads
// over the whole job path (simulator, co-hosted mesh, served fleet),
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced run. Nothing inside the product is
// instrumented; every layer number is taken from outside, by timing
// calls into the layer's public functions. See README.md.
//
//	go run -C benchmark . [-workload name] [-seed n] [-seconds s] [-trace 0|1]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	short    bool
}

func workloadByName(name string) workload {
	switch name {
	case "sim-figures":
		return &simFigures{}
	case "mesh-reads":
		return meshReads()
	case "mesh-commits":
		return meshCommits()
	case "served-mix":
		return &servedMix{}
	}
	return nil
}

func main() {
	var cfg config
	var trace int
	var check, desc bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four in turn)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (0: the apps' default seeds)")
	// The driver passes --seconds and --trace <0|1> on every run, so both
	// are flags with a value; results of different windows do not compare.
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window (the driver passes run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.out, "out", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
	flag.BoolVar(&cfg.short, "short", false, "two measured rounds and one set-up, whatever -seconds says")
	flag.BoolVar(&check, "check", false, "A/A check: run every workload twice, fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&desc, "describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0 && !check // the A/A check compares end-to-end metrics

	if desc {
		if err := describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloadWhy {
			names = append(names, w.name)
		}
	} else if workloadByName(cfg.workload) == nil {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}

	// Pinned so a many-core host and a small one schedule the same way.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("host_cpus %d\ngomaxprocs %d\ngo %s\nseed %d\nseconds %g\ntrace %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, trace)

	ok := true
	sets := 1
	if check {
		sets = 2
	}
	reports := make([]map[string]*report, sets)
	for s := range reports {
		reports[s] = make(map[string]*report)
		for _, name := range names {
			c := cfg
			c.workload = name
			rep := runWorkload(root, c)
			rep.print(os.Stdout)
			ok = ok && rep.err == nil && rep.failed == 0
			reports[s][name] = rep
		}
	}
	if check && !compareSets(reports[0], reports[1], names) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the checkout's root:
// the directory whose go.mod declares module ppm.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			line, _ := bufio.NewReader(f).ReadString('\n')
			f.Close()
			if strings.TrimSpace(line) == "module ppm" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module ppm above the working directory: run from a checkout")
		}
		dir = parent
	}
}

// buildBinaries builds the product's ppm-node and ppm-server from the
// checkout's source into .bench_build/bin and returns the build time.
func buildBinaries(root string, e *env) (time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ppm-node", "./cmd/ppm-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building ppm-node and ppm-server: %v\n%s", err, out)
	}
	e.nodeBin, e.serverBin = filepath.Join(bin, "ppm-node"), filepath.Join(bin, "ppm-server")
	return time.Since(start), nil
}

// window is what a run of rounds measured.
type window struct {
	roundMS   []float64
	elapsed   time.Duration
	cpu       time.Duration
	allocMB   float64
	mallocs   float64
	attempted int
	failed    int
	jobs      int
}

// add appends what a later stretch of the same window measured.
func (w *window) add(seg window) {
	w.roundMS = append(w.roundMS, seg.roundMS...)
	w.elapsed += seg.elapsed
	w.cpu += seg.cpu
	w.allocMB += seg.allocMB
	w.mallocs += seg.mallocs
	w.attempted += seg.attempted
	w.failed += seg.failed
	w.jobs += seg.jobs
}

// measure repeats the round, closed loop, until the window is full (or
// for exactly `rounds` rounds when that is positive). It stops early on
// a failed op: the run is already incorrect.
func measure(w workload, t *tally, tr *tracer, dur time.Duration, rounds int) window {
	var win window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := treeCPU()
	start := time.Now()
	for n := 0; ; n++ {
		if rounds > 0 && n >= rounds || rounds <= 0 && n >= minRounds && time.Since(start) >= dur {
			break
		}
		tc := traceCtx{tr: tr, round: n}
		tc.parent = tr.begin(spanRound, -1, n, -1)
		t0 := time.Now()
		rc := w.round(tc, t)
		win.roundMS = append(win.roundMS, ms(time.Since(t0)))
		tr.end(tc.parent)
		win.attempted += rc.attempted
		win.failed += rc.failed
		win.jobs += rc.jobs
		if rc.failed > 0 {
			break
		}
	}
	win.elapsed = time.Since(start)
	win.cpu = treeCPU() - cpu0
	runtime.ReadMemStats(&after)
	win.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	win.mallocs = float64(after.Mallocs - before.Mallocs)
	return win
}

const (
	spanRound = "round"
	// minRounds is the fewest rounds a window holds however slow the
	// host, so a median is never of one or two samples.
	minRounds = 5
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps = 3
	// warmRounds run after each set-up and before any measurement: they
	// fill the caches a steady service has full (fleets spawned, code
	// paths hot).
	warmRounds = 1
)

// runWorkload runs one workload as configured and reports its metrics.
func runWorkload(root string, cfg config) *report {
	rep := &report{workload: cfg.workload, m: metrics{}, defs: endToEnd}
	if cfg.trace {
		rep.defs = perLayer
	}
	fail := func(err error) *report {
		if rep.err == nil {
			rep.err = err
		}
		if rep.attempted == 0 {
			rep.attempted, rep.failed = 1, 1
		}
		return rep
	}

	w := workloadByName(cfg.workload)
	e := &env{seed: cfg.seed}
	var err error
	e.workDir, err = makeWorkDir(root, cfg.workload)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.workDir)
	// Everything the product forks or creates "in the temp dir"
	// (rendezvous directories of launched and served fleets) stays in
	// the checkout.
	if prev, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", prev)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", e.workDir)

	var build time.Duration
	if w.needsBinaries() || cfg.trace {
		if build, err = buildBinaries(root, e); err != nil {
			return fail(err)
		}
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	rounds := 0
	reps := setupReps
	if cfg.short {
		rounds, reps = 2, 1
	}
	if cfg.trace {
		dur /= 2 // half the window untraced, half traced
		reps = 1
	}

	// Set-up, several times over: everything from workload start to the
	// first measured round. Each set-up is followed by its share of the
	// measured window, so a run sees several meshes (or servers), not
	// only the one it happened to get. calm is the stretch with the
	// lowest round median: a busy host only ever adds time, in stretches
	// of seconds to minutes, so the calmest stretch is the steadiest
	// estimate of the program's own speed, and a slower program slows
	// all of them.
	t := newTally()
	var win window
	var setupS, eachMS, calm []float64 // calm: the calmest stretch's round times
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := w.setUp(e); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		warm := newTally()
		if measure(w, warm, nil, 0, warmRounds).failed > 0 {
			w.tearDown()
			return fail(fmt.Errorf("warm-up round: %w", warm.err))
		}
		setupS = append(setupS, time.Since(start).Seconds())
		seg := measure(w, t, nil, dur/time.Duration(reps), rounds)
		eachMS = append(eachMS, median(seg.roundMS))
		if i == 0 || eachMS[i] < median(calm) {
			calm = seg.roundMS
		}
		win.add(seg)
		if seg.failed > 0 || i == reps-1 {
			break
		}
		if err := w.tearDown(); err != nil {
			return fail(fmt.Errorf("tear-down: %w", err))
		}
	}
	rep.attempted, rep.failed, rep.err = win.attempted, win.failed, t.err

	if !cfg.trace {
		// Twice: the first collection only moves sync.Pool contents to the
		// pools' victim caches, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := float64(len(win.roundMS))
		rep.m["setup_s"] = median(setupS)
		rep.m.setMedian("round_ms_p50", calm)
		rep.m["alloc_mb_per_round"] = win.allocMB / n
		rep.m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		if v, pct := highPercentile(win.roundMS); pct > 0 {
			fmt.Printf("%-12s round_ms_p%g %.6g ms n=%d\n", cfg.workload, pct, v, len(win.roundMS))
		}
		fmt.Printf("%-12s rounds %d warm_rounds %d spread_round_ms %.4f set_ups %d round_ms_p50_of_all %.6g round_ms_p50_of_each %.6g\n",
			cfg.workload, len(win.roundMS), warmRounds, iqrShare(win.roundMS), reps, median(win.roundMS), eachMS)
	} else if rep.failed == 0 {
		tr := newTracer()
		tt := newTally()
		twin := measure(w, tt, tr, dur, rounds)
		rep.attempted += twin.attempted
		rep.failed += twin.failed
		rep.err = tt.err
		n := float64(len(twin.roundMS))
		m := rep.m
		m["bench.rounds"] = n
		m["bench.build_s"] = build.Seconds()
		m["bench.trace_overhead_share"] = median(twin.roundMS)/median(win.roundMS) - 1
		m["bench.spread_round_ms"] = iqrShare(win.roundMS)
		m["bench.fail_share"] = float64(rep.failed) / float64(rep.attempted)
		m["bench.model_makespan_ms"] = tt.makespanMS / n
		m["bench.cpu_ms_per_round"] = float64(win.cpu) / 1e6 / float64(len(win.roundMS))
		m["bench.jobs_per_s"] = float64(win.jobs) / win.elapsed.Seconds()
		m["core.allocs_per_round"] = twin.mallocs / n
		counterMetrics(tt.stats, n, m)
		if rep.err == nil {
			rep.err = w.probe(e, tr, tt, n, m)
		}
		out := cfg.out
		if out == "" {
			out = filepath.Join(root, ".bench_build", "spans-"+cfg.workload+".jsonl")
		}
		if err := tr.writeTo(out); err != nil && rep.err == nil {
			rep.err = err
		}
		fmt.Printf("%-12s spans %d written to %s\n", cfg.workload, len(tr.spans), out)
	}

	if err := w.tearDown(); err != nil {
		return fail(fmt.Errorf("tear-down: %w", err))
	}
	return rep
}

// makeWorkDir makes this run's scratch directory under .bench_build.
func makeWorkDir(root, workload string) (string, error) {
	parent := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, workload+"-")
}

// compareSets is the A/A check: two sets of runs of one commit must
// agree on every end-to-end metric within the metric's own bound.
func compareSets(a, b map[string]*report, names []string) bool {
	ok := true
	for _, name := range names {
		for _, d := range endToEnd {
			x, y := a[name].m[d.name], b[name].m[d.name]
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			verdict := "ok"
			if diff > d.bound || diff < -d.bound {
				verdict, ok = "DIFFERS", false
			}
			fmt.Printf("check %-12s %-20s %12.6g %12.6g %+7.2f%% bound %g%% %s\n",
				name, d.name, x, y, diff*100, d.bound*100, verdict)
		}
	}
	return ok
}
