// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Figures 1-3: application
// runtime vs node count for PPM and MPI; Table 1: code size) and formats
// the results as aligned tables, CSV, and ASCII charts.
//
// Absolute simulated seconds are not claimed to match the paper's Franklin
// wall-clock numbers; the reproduced quantity is the *shape*: who wins at
// which node count, and how the gap moves as nodes are added (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// SweepConfig selects the cluster shapes of one figure sweep.
type SweepConfig struct {
	// NodeCounts lists the cluster sizes to run (the figures' x-axis).
	NodeCounts []int
	// CoresPerNode is the cores (and MPI ranks) per node; 0 uses the
	// machine's count (4 on Franklin, as in the paper).
	CoresPerNode int
	// Machine is the cost model; machine.Franklin() if nil. It is
	// shared read-only by every point of the sweep.
	Machine *machine.Machine

	// Parallel is the number of sweep points run concurrently on the
	// host: 0 uses GOMAXPROCS, 1 runs the sweep sequentially. Points
	// are independent — each run constructs its own Cluster, shared
	// arrays, pools, and RNG state — and results are assembled in
	// NodeCounts order regardless of completion order, so the Series
	// is bit-identical for every worker count.
	Parallel int
	// ParallelRun additionally runs each point's simulator under the
	// cluster's conservative parallel scheduler (see cluster.Config
	// .Parallel). Host-time optimization only; modeled results are
	// bit-identical either way.
	ParallelRun bool
	// Progress, if non-nil, receives one line per completed point, in
	// completion order (out of order when Parallel > 1), prefixed with
	// the point id. The callback is serialized by the harness.
	Progress func(line string)
}

func (c SweepConfig) fill() SweepConfig {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.Machine == nil {
		c.Machine = machine.Franklin()
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = c.Machine.CoresPerNode
	}
	return c
}

// DefaultSweep returns the paper-shaped sweep: 1-64 Franklin nodes with 4
// cores each.
func DefaultSweep() SweepConfig { return SweepConfig{}.fill() }

// runPoints executes a figure's sweep on a bounded worker pool and
// appends the results to s.Points in NodeCounts order. Each point is
// two independent work units — the PPM run and the MPI run — which
// fill disjoint fields of the point, so the pool schedules 2*len
// (NodeCounts) jobs; splitting the halves shortens the critical path
// (the largest point's PPM run) that bounds the sweep's wall-clock.
//
// With one worker the halves run in the historical order (PPM then MPI,
// points in NodeCounts order, fail-fast: later work never runs after an
// error). With several workers every job runs and the reported error is
// the one the sequential order would have hit first — smallest point
// index, PPM half before MPI — so the error too is deterministic.
// Completed points stream through c.Progress as both halves finish.
func (c SweepConfig) runPoints(s *Series, ppm, mpi func(nodes int, pt *Point) error) error {
	total := len(c.NodeCounts)
	workers := c.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 2*total {
		workers = 2 * total
	}
	pts := make([]Point, total)
	for i, nodes := range c.NodeCounts {
		pts[i].Nodes = nodes
	}
	if workers <= 1 {
		done := 0
		for i, nodes := range c.NodeCounts {
			err := ppm(nodes, &pts[i])
			if err == nil {
				err = mpi(nodes, &pts[i])
			}
			done++
			c.emitProgress(s, nodes, pts[i], err, done, total)
			if err != nil {
				return err
			}
		}
		s.Points = append(s.Points, pts...)
		return nil
	}
	// A job is point index * 2 + half (0 = PPM, 1 = MPI). The halves
	// write disjoint fields of their point, so they need no lock; the
	// progress/error bookkeeping does.
	errs := make([]error, 2*total)
	left := make([]int, total) // halves still running per point
	for i := range left {
		left[i] = 2
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i, nodes := j/2, c.NodeCounts[j/2]
				var err error
				if j%2 == 0 {
					err = ppm(nodes, &pts[i])
				} else {
					err = mpi(nodes, &pts[i])
				}
				mu.Lock()
				errs[j] = err
				left[i]--
				if left[i] == 0 {
					done++
					perr := errs[2*i]
					if perr == nil {
						perr = errs[2*i+1]
					}
					c.emitProgress(s, nodes, pts[i], perr, done, total)
				}
				mu.Unlock()
			}
		}()
	}
	// Dispatch biggest points first: host time grows with the proc
	// count, so on typical sweeps (1..64 nodes) the largest point is
	// the critical path. Starting it last would leave it running alone
	// after the small points drain; starting it first lets the small
	// points pack around it. Results are index-addressed, so dispatch
	// order never affects the assembled Series.
	order := make([]int, 2*total)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := c.NodeCounts[order[a]/2], c.NodeCounts[order[b]/2]
		if na != nb {
			return na > nb
		}
		return order[a] < order[b] // PPM (usually costlier) before MPI
	})
	for _, j := range order {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.Points = append(s.Points, pts...)
	return nil
}

// emitProgress formats and delivers one completed-point line. Callers
// serialize invocations.
func (c SweepConfig) emitProgress(s *Series, nodes int, pt Point, err error, done, total int) {
	if c.Progress == nil {
		return
	}
	id := fmt.Sprintf("[%s n=%d]", s.Figure, nodes)
	if err != nil {
		c.Progress(fmt.Sprintf("%s error: %v (%d/%d points)", id, err, done, total))
		return
	}
	c.Progress(fmt.Sprintf("%s PPM %.6fs MPI %.6fs (%d/%d points)", id, pt.PPMSec, pt.MPISec, done, total))
}

// Point is one x-position of a figure: both implementations at one
// cluster size.
type Point struct {
	Nodes    int
	PPMSec   float64
	MPISec   float64
	PPMBytes int64 // modeled communication payload, PPM bundles
	MPIBytes int64 // modeled communication payload, MPI messages
	PPMMsgs  int64
	MPIMsgs  int64
}

// Series is one figure's data.
type Series struct {
	Figure string // e.g. "Figure 1"
	Name   string // e.g. "CG solver, 48x48x96 grid"
	Points []Point
}

// Table renders the series as an aligned text table with the PPM/MPI
// ratio column (ratio < 1 means PPM is faster).
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (simulated seconds, lower is better)\n", s.Figure, s.Name)
	fmt.Fprintf(&b, "%6s  %12s  %12s  %9s  %14s  %14s\n",
		"nodes", "PPM [s]", "MPI [s]", "PPM/MPI", "PPM comm [B]", "MPI comm [B]")
	for _, p := range s.Points {
		ratio := math.NaN()
		if p.MPISec > 0 {
			ratio = p.PPMSec / p.MPISec
		}
		fmt.Fprintf(&b, "%6d  %12.6f  %12.6f  %9.3f  %14d  %14d\n",
			p.Nodes, p.PPMSec, p.MPISec, ratio, p.PPMBytes, p.MPIBytes)
	}
	return b.String()
}

// CSV renders the series as CSV with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString("nodes,ppm_sec,mpi_sec,ppm_bytes,mpi_bytes,ppm_msgs,mpi_msgs\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%g,%g,%d,%d,%d,%d\n",
			p.Nodes, p.PPMSec, p.MPISec, p.PPMBytes, p.MPIBytes, p.PPMMsgs, p.MPIMsgs)
	}
	return b.String()
}

// Chart renders a horizontal-bar ASCII chart of both series.
func (s *Series) Chart() string {
	var b strings.Builder
	maxSec := 0.0
	for _, p := range s.Points {
		maxSec = math.Max(maxSec, math.Max(p.PPMSec, p.MPISec))
	}
	if maxSec <= 0 {
		return ""
	}
	const width = 46
	bar := func(v float64) string {
		n := int(math.Round(v / maxSec * width))
		if n < 1 && v > 0 {
			n = 1
		}
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(&b, "%s: %s\n", s.Figure, s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%5d nodes  PPM |%-*s %.4gs\n", p.Nodes, width, bar(p.PPMSec), p.PPMSec)
		fmt.Fprintf(&b, "%5s        MPI |%-*s %.4gs\n", "", width, bar(p.MPISec), p.MPISec)
	}
	return b.String()
}

// CrossoverNodes returns the smallest node count at which PPM is at least
// as fast as MPI, or 0 if it never is.
func (s *Series) CrossoverNodes() int {
	for _, p := range s.Points {
		if p.PPMSec <= p.MPISec {
			return p.Nodes
		}
	}
	return 0
}

// sweep fills s with one point per node count: the named application
// under PPM on the simulator and under its message-passing baseline.
func (c SweepConfig) sweep(s *Series, spec dist.AppSpec) (*Series, error) {
	err := c.runPoints(s, func(nodes int, pt *Point) error {
		_, prep, err := dist.RunSim(core.Options{
			Nodes: nodes, CoresPerNode: c.CoresPerNode, Machine: c.Machine, Parallel: c.ParallelRun,
		}, spec)
		if err != nil {
			return fmt.Errorf("%s: PPM at %d nodes: %w", s.Figure, nodes, err)
		}
		pt.PPMSec = prep.Makespan().Seconds()
		pt.PPMBytes = prep.Totals.BytesOut + prep.Cluster.Totals.BytesSent
		pt.PPMMsgs = prep.Totals.BundlesOut + prep.Cluster.Totals.MsgsSent
		return nil
	}, func(nodes int, pt *Point) error {
		_, mrep, err := dist.RunMPI(dist.MPIOptions{
			Nodes: nodes, CoresPerNode: c.CoresPerNode, Machine: c.Machine, Parallel: c.ParallelRun,
		}, spec)
		if err != nil {
			return fmt.Errorf("%s: MPI at %d nodes: %w", s.Figure, nodes, err)
		}
		pt.MPISec = mrep.Makespan.Seconds()
		pt.MPIBytes = mrep.Totals.BytesSent
		pt.MPIMsgs = mrep.Totals.MsgsSent
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Figure1CG regenerates the paper's Figure 1: CG solver runtime vs node
// count, PPM vs the tuned MPI implementation.
func Figure1CG(cfg SweepConfig, prm cg.Params) (*Series, error) {
	return cfg.fill().sweep(&Series{
		Figure: "Figure 1",
		Name: fmt.Sprintf("CG solver, %dx%dx%d grid (%d rows), %d iterations",
			prm.NX, prm.NY, prm.NZ, prm.N(), prm.MaxIter),
	}, dist.AppSpec{App: "cg", CG: prm})
}

// Figure2Colloc regenerates the paper's Figure 2: collocation sparse-
// matrix generation runtime vs node count.
func Figure2Colloc(cfg SweepConfig, prm colloc.Params) (*Series, error) {
	return cfg.fill().sweep(&Series{
		Figure: "Figure 2",
		Name:   fmt.Sprintf("collocation matrix generation, %d levels, n=%d", prm.Levels, prm.N()),
	}, dist.AppSpec{App: "colloc", Colloc: prm})
}

// Figure3BarnesHut regenerates the paper's Figure 3: Barnes-Hut runtime
// vs node count, PPM (in-place bundled tree access) vs MPI (whole-tree
// replication).
func Figure3BarnesHut(cfg SweepConfig, prm nbody.Params) (*Series, error) {
	return cfg.fill().sweep(&Series{
		Figure: "Figure 3",
		Name:   fmt.Sprintf("Barnes-Hut, %d bodies, theta=%.2f, %d steps", prm.N, prm.Theta, prm.Steps),
	}, dist.AppSpec{App: "nbody", Nbody: prm})
}

// FigureS1Jacobi regenerates the supplementary structured counterpoint
// (DESIGN.md experiment S1): Jacobi relaxation runtime vs node count.
func FigureS1Jacobi(cfg SweepConfig, prm jacobi.Params) (*Series, error) {
	return cfg.fill().sweep(&Series{
		Figure: "Figure S1",
		Name: fmt.Sprintf("Jacobi relaxation (structured counterpoint), %dx%dx%d grid, %d sweeps",
			prm.NX, prm.NY, prm.NZ, prm.Sweeps),
	}, dist.AppSpec{App: "jacobi", Jacobi: prm})
}
