// Command ppm-figures regenerates the paper's evaluation figures
// (Figures 1-3): application runtime versus node count for the PPM and
// MPI implementations, on the simulated Franklin-like machine.
//
// Usage:
//
//	ppm-figures [-fig 1|2|3|0] [-nodes 1,2,4,8,16,32,64] [-cores 4]
//	            [-csv] [-chart] [-parallel N] [-par-run] [-quiet]
//	            [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	            [-cg-grid 24x24x48] [-cg-iters 20]
//	            [-colloc-levels 7] [-colloc-m0 12]
//	            [-bh-n 3000] [-bh-steps 2]
//
// -fig 0 (default) runs all three figures and the supplementary Jacobi
// one (-fig 4, at its default size). The workload flags are the ones the
// three applications declare for every command (a flag left at zero
// means its default); the default sizes are laptop-scale, raise them
// toward the paper's (see DESIGN.md) if you have the patience.
//
// Sweep points run concurrently on a bounded worker pool (-parallel,
// default GOMAXPROCS); -par-run additionally runs each point's simulator
// on the cluster's parallel scheduler. Both are host-time optimizations
// only: the emitted tables are bit-identical for every setting. Progress
// lines stream to stderr as points complete.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/bench"
	"ppm/internal/machine"
	"ppm/internal/prof"
)

func parseNodeList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppm-figures: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: tables on stdout, progress and errors on stderr,
// and the exit status. Stdout is deterministic, so
// testdata/nodes_1_2_4.golden pins it for `-nodes 1,2,4`.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppm-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (1, 2, 3; 4 = supplementary S1 Jacobi; 0 = all)")
	nodeList := fs.String("nodes", "1,2,4,8,16,32,64", "comma-separated node counts")
	cores := fs.Int("cores", 4, "cores (and MPI ranks) per node")
	emitCSV := fs.Bool("csv", false, "emit CSV instead of tables")
	emitChart := fs.Bool("chart", false, "also emit ASCII charts")
	// The workloads of Figures 1, 2 and 3.
	var (
		cgPrm     cg.Params
		collocPrm colloc.Params
		bhPrm     nbody.Params
	)
	cgPrm.Flags(fs)
	collocPrm.Flags(fs)
	bhPrm.Flags(fs)
	parallel := fs.Int("parallel", 0, "concurrent sweep points (0 = GOMAXPROCS, 1 = sequential); results identical for every value")
	parRun := fs.Bool("par-run", false, "run each point's simulator on the parallel scheduler (bit-identical results)")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	nodes, err := parseNodeList(*nodeList)
	if err != nil {
		fmt.Fprintf(stderr, "ppm-figures: %v\n", err)
		return 1
	}
	cfg := bench.SweepConfig{
		NodeCounts:   nodes,
		CoresPerNode: *cores,
		Machine:      machine.Franklin(),
		Parallel:     *parallel,
		ParallelRun:  *parRun,
	}
	if !*quiet {
		// Stderr is unbuffered, so each point's line is visible the
		// moment the point completes, even mid-sweep.
		cfg.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}

	emit := func(s *bench.Series) {
		if *emitCSV {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", s.Figure, s.Name, s.CSV())
			return
		}
		fmt.Fprintln(stdout, s.Table())
		if *emitChart {
			fmt.Fprintln(stdout, s.Chart())
		}
		if x := s.CrossoverNodes(); x > 0 {
			fmt.Fprintf(stdout, "PPM matches or beats MPI from %d node(s).\n\n", x)
		} else {
			fmt.Fprintf(stdout, "PPM does not overtake MPI in this sweep.\n\n")
		}
	}

	// -fig N runs figures[N]; 0 runs them all.
	figures := []func() (*bench.Series, error){
		1: func() (*bench.Series, error) { return bench.Figure1CG(cfg, cgPrm.WithDefaults()) },
		2: func() (*bench.Series, error) { return bench.Figure2Colloc(cfg, collocPrm.WithDefaults()) },
		3: func() (*bench.Series, error) { return bench.Figure3BarnesHut(cfg, bhPrm.WithDefaults()) },
		4: func() (*bench.Series, error) { return bench.FigureS1Jacobi(cfg, jacobi.Params{}.WithDefaults()) },
	}
	if *fig < 0 || *fig >= len(figures) {
		fmt.Fprintln(stderr, "ppm-figures: -fig must be 0, 1, 2, 3 or 4")
		return 2
	}
	for n, figure := range figures {
		if figure != nil && (*fig == 0 || *fig == n) {
			s, err := figure()
			if err != nil {
				// The error carries the scheduler's full multi-line
				// per-process deadlock diagnostics, so a hang in any
				// point is attributable; the command never exits 0
				// after a failure.
				fmt.Fprintf(stderr, "ppm-figures: run failed: %v\n", err)
				return 1
			}
			emit(s)
		}
	}
	return 0
}
