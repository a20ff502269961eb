package dist

import (
	"encoding/json"
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
	"ppm/internal/wire"
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

// The fragments below are how an application's output crosses the node
// stdout pipe: every float64 and int64 payload is a wire word slice, so
// its JSON form is base64 of little-endian words, bit-exact for every
// value, NaN and infinities included.

// CGFrag is rank 0's cg result.
type CGFrag struct {
	X        wire.Float64s
	Iters    int
	Residual wire.Float64
}

// CollocFrag is one node's rows of the collocation matrix (rows are dealt
// cyclically): row Rows[k] of N is Entries[k]. In a process it shares the
// run's rows; its JSON form is columnar words (collocWords).
type CollocFrag struct {
	N       int
	Rows    []int
	Entries [][]colloc.Entry
}

// collocWords is CollocFrag's JSON form: row Rows[k] has Lens[k] entries,
// whose columns and values follow in Cols and Vals, row after row.
type collocWords struct {
	N                int
	Rows, Lens, Cols wire.Int64s
	Vals             wire.Float64s
}

// MarshalJSON encodes f as columnar words.
func (f *CollocFrag) MarshalJSON() ([]byte, error) {
	nnz := 0
	for _, row := range f.Entries {
		nnz += len(row)
	}
	w := collocWords{
		N:    f.N,
		Rows: make(wire.Int64s, len(f.Rows)), Lens: make(wire.Int64s, len(f.Entries)),
		Cols: make(wire.Int64s, 0, nnz), Vals: make(wire.Float64s, 0, nnz),
	}
	for k, row := range f.Entries {
		w.Rows[k], w.Lens[k] = int64(f.Rows[k]), int64(len(row))
		for _, e := range row {
			w.Cols = append(w.Cols, int64(e.Col))
			w.Vals = append(w.Vals, e.Val)
		}
	}
	return json.Marshal(&w)
}

// UnmarshalJSON decodes columnar words into f, refusing row lengths that
// do not add up to the columns and values sent.
func (f *CollocFrag) UnmarshalJSON(b []byte) error {
	var w collocWords
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Lens) != len(w.Rows) || len(w.Vals) != len(w.Cols) {
		return fmt.Errorf("colloc fragment: %d rows with %d lengths, %d columns with %d values",
			len(w.Rows), len(w.Lens), len(w.Cols), len(w.Vals))
	}
	entries := make([]colloc.Entry, len(w.Cols))
	for k, c := range w.Cols {
		entries[k] = colloc.Entry{Col: int(c), Val: w.Vals[k]}
	}
	f.N, f.Rows, f.Entries = w.N, make([]int, len(w.Rows)), make([][]colloc.Entry, len(w.Rows))
	for k, l := range w.Lens {
		if l < 0 || l > int64(len(entries)) {
			return fmt.Errorf("colloc fragment: row %d has %d entries, %d are left", w.Rows[k], l, len(entries))
		}
		f.Rows[k], f.Entries[k], entries = int(w.Rows[k]), entries[:l:l], entries[l:]
	}
	if len(entries) != 0 {
		return fmt.Errorf("colloc fragment: %d entries beyond its rows", len(entries))
	}
	return nil
}

// NbodyFrag is one node's block of the final particle state. M rides
// along on rank 0 only (every rank holds the full, identical masses).
type NbodyFrag struct {
	Lo, Hi                 int
	PX, PY, PZ, VX, VY, VZ wire.Float64s
	M                      wire.Float64s `json:",omitempty"`
}

// NodeResult is what one node process reports back to the launcher: its
// runtime counters plus its fragment of the application result. It
// crosses the process boundary as JSON inside a NodeReply, its payloads
// as base64 words (the fragment types above), so the launcher merges the
// very bits the node computed.
type NodeResult struct {
	Rank  int
	Err   string `json:",omitempty"`
	Stats core.NodeStats

	CG      *CGFrag       `json:",omitempty"` // rank 0 only
	Jacobi  wire.Float64s `json:",omitempty"` // rank 0 only
	Colloc  *CollocFrag   `json:",omitempty"`
	Nbody   *NbodyFrag    `json:",omitempty"`
	Search  wire.Int64s   `json:",omitempty"`
	Scatter wire.Float64s `json:",omitempty"` // this rank's accumulator partition
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
