package dist

import (
	"fmt"
	"strings"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/cluster"
	"ppm/internal/core"
)

// AppSpec names one of the repository's figure apps and its parameters.
// Only the parameter set matching App is consulted.
type AppSpec struct {
	App     string
	CG      cg.Params
	Colloc  colloc.Params
	Nbody   nbody.Params
	Jacobi  jacobi.Params
	Search  search.Params
	Scatter scatter.Params
}

// RowFrag is one matrix row owned by a node (colloc deals rows
// cyclically, so a fragment is a list of (index, row) pairs).
type RowFrag struct {
	I   int
	Row []colloc.Entry
}

// NbodyFrag is one node's block of the final particle state. M rides
// along on rank 0 only (every rank holds the full, identical masses).
type NbodyFrag struct {
	Lo, Hi                 int
	PX, PY, PZ, VX, VY, VZ []float64
	M                      []float64 `json:",omitempty"`
}

// NodeResult is what one node process reports back to the launcher: its
// runtime counters plus its fragment of the application result. It
// crosses the process boundary as JSON; float64 values survive that
// round trip bit-exactly (Go prints the shortest uniquely-decoding
// representation), which the equivalence tests rely on.
type NodeResult struct {
	Rank  int
	Err   string `json:",omitempty"`
	Stats core.NodeStats

	CG         *cg.Result `json:",omitempty"` // rank 0 only
	Jacobi     []float64  `json:",omitempty"` // rank 0 only
	CollocN    int        `json:",omitempty"`
	CollocRows []RowFrag  `json:",omitempty"`
	Nbody      *NbodyFrag `json:",omitempty"`
	Search     []int64    `json:",omitempty"`
	Scatter    []float64  `json:",omitempty"` // this rank's accumulator partition
}

// RunApp executes this process's share of the named app over the engine
// and packages the node-local result. It never returns an error: failures
// are carried in NodeResult.Err so the launcher can attribute them.
func RunApp(eng core.DistEngine, opt core.Options, spec AppSpec) *NodeResult {
	res := &NodeResult{Rank: eng.Rank()}
	runner := core.Runner(func(o core.Options, prog func(rt *core.Runtime)) (*core.Report, error) {
		return core.RunDist(o, eng, prog)
	})
	a, err := lookup(spec.App)
	if err == nil {
		var m Merged
		var rep *core.Report
		if rep, err = a.run(runner, opt, spec, &m); err == nil {
			a.fragment(spec, &m, eng.Rank(), eng.Nodes(), res)
		}
		if rep != nil && eng.Rank() < len(rep.PerNode) {
			res.Stats = rep.PerNode[eng.Rank()]
		}
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// RunSim runs the named app on the simulator under opt (sequential or
// parallel, observed or not: the caller's options are used as given) and
// shapes the native output like a distributed merge, so one flattening
// path serves every backend. The report keeps its cluster half.
func RunSim(opt core.Options, spec AppSpec) (*Merged, *core.Report, error) {
	a, err := lookup(spec.App)
	if err != nil {
		return nil, nil, err
	}
	m := &Merged{}
	rep, err := a.run(core.Run, opt, spec, m)
	if err != nil {
		return nil, rep, err
	}
	m.PerNode, m.Totals = rep.PerNode, rep.Totals
	return m, rep, nil
}

// RunMPI runs the named app's message-passing baseline, its output in
// the same merged shape (without per-node statistics: the baseline has
// no PPM runtime to count).
func RunMPI(opt MPIOptions, spec AppSpec) (*Merged, *cluster.Report, error) {
	a, err := lookup(spec.App)
	if err != nil {
		return nil, nil, err
	}
	if a.runMPI == nil {
		return nil, nil, fmt.Errorf("%s has no message-passing variant", spec.App)
	}
	m := &Merged{}
	rep, err := a.runMPI(opt, spec, m)
	if err != nil {
		return nil, rep, err
	}
	return m, rep, nil
}

// Merged is the reassembled cross-node result of a distributed run,
// shaped exactly like the corresponding RunPPM output.
type Merged struct {
	CG      *cg.Result
	Jacobi  []float64
	Colloc  *colloc.Matrix
	Nbody   *nbody.State
	Search  [][]int64
	Scatter [][]float64

	PerNode []core.NodeStats
	Totals  core.NodeStats
}

// Merge reassembles the per-node fragments into the full application
// result and aggregate statistics. Any node that reported an error makes
// Merge fail with every failing rank's message.
func Merge(spec AppSpec, results []NodeResult) (*Merged, error) {
	var errs []string
	for i, r := range results {
		if r.Rank != i {
			return nil, fmt.Errorf("dist: result %d is from rank %d — launcher order broken", i, r.Rank)
		}
		if r.Err != "" {
			errs = append(errs, fmt.Sprintf("rank %d: %s", r.Rank, r.Err))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("dist: %d of %d nodes failed:\n  %s", len(errs), len(results), strings.Join(errs, "\n  "))
	}
	m := &Merged{PerNode: make([]core.NodeStats, len(results))}
	for i, r := range results {
		m.PerNode[i] = r.Stats
		m.Totals.Add(r.Stats)
	}
	a, err := lookup(spec.App)
	if err != nil {
		return nil, err
	}
	if err := a.merge(spec, results, m); err != nil {
		return nil, err
	}
	return m, nil
}
