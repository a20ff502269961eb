package jobspec

import (
	"fmt"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
)

// Result is the job outcome every execution path produces: the
// application output flattened into Series/ISeries (a deterministic
// per-app layout, so two runs of the same spec can be compared
// Float64bits-for-Float64bits without knowing the app's native shape),
// plus the run's per-node statistics. It round-trips through JSON
// bit-exactly (Go prints the shortest uniquely-decoding float
// representation).
type Result struct {
	Hash    string `json:"hash"`
	App     string `json:"app"`
	Backend string `json:"backend"`

	// Series is the flattened float64 payload; ISeries the integer
	// payload (lengths, indices, int outputs). See flatten* below for
	// the per-app layout.
	Series  []float64 `json:"series"`
	ISeries []int64   `json:"iseries,omitempty"`

	// Summary is the one-line human description ppm-run would print.
	Summary string `json:"summary"`

	PerNode []core.NodeStats `json:"per_node,omitempty"`
	Totals  core.NodeStats   `json:"totals"`

	// Cached marks a result served from the server's content-addressed
	// cache rather than a fresh run.
	Cached bool `json:"cached,omitempty"`
}

// FromMerged flattens a distributed (or distributed-shaped) merged
// application result into a Result. The layouts are chosen so that
// equal app outputs produce equal Series/ISeries and nothing else does:
//
//	cg:      Series = X ++ [Residual];     ISeries = [Iters]
//	jacobi:  Series = u
//	colloc:  rows ascending: ISeries gets (row, nEntries, cols...),
//	         Series gets the values in the same order
//	nbody:   Series = PX ++ PY ++ PZ ++ VX ++ VY ++ VZ ++ M
//	search:  ISeries = [nodes, len0.., keys0..] (per-node lengths, data)
//	scatter: ISeries = [nodes, len0..]; Series = per-node data
func FromMerged(s *Spec, m *dist.Merged) (*Result, error) {
	r := &Result{
		Hash:    s.Hash(),
		App:     s.App,
		Backend: s.Backend,
		PerNode: m.PerNode,
		Totals:  m.Totals,
	}
	switch s.App {
	case "cg":
		if m.CG == nil {
			return nil, fmt.Errorf("jobspec: cg run produced no result")
		}
		r.Series = append(append(make([]float64, 0, len(m.CG.X)+1), m.CG.X...), m.CG.Residual)
		r.ISeries = []int64{int64(m.CG.Iters)}
		r.Summary = fmt.Sprintf("cg: %d iterations, residual %.3e", m.CG.Iters, m.CG.Residual)
	case "jacobi":
		r.Series = m.Jacobi
		r.Summary = fmt.Sprintf("jacobi: %dx%dx%d grid, %d sweeps",
			s.Jacobi.NX, s.Jacobi.NY, s.Jacobi.NZ, s.Jacobi.Sweeps)
	case "colloc":
		if m.Colloc == nil {
			return nil, fmt.Errorf("jobspec: colloc run produced no result")
		}
		nnz := m.Colloc.NNZ()
		r.Series = sized[float64](nnz)
		r.ISeries = sized[int64](nnz + 2*len(m.Colloc.Rows))
		for i, row := range m.Colloc.Rows {
			r.ISeries = append(r.ISeries, int64(i), int64(len(row)))
			for _, e := range row {
				r.ISeries = append(r.ISeries, int64(e.Col))
				r.Series = append(r.Series, e.Val)
			}
		}
		r.Summary = fmt.Sprintf("colloc: %d x %d matrix, %d nonzeros",
			m.Colloc.N, m.Colloc.N, nnz)
	case "nbody":
		st := m.Nbody
		if st == nil {
			return nil, fmt.Errorf("jobspec: nbody run produced no result")
		}
		r.Series = sized[float64](7 * len(st.PX))
		for _, col := range [][]float64{st.PX, st.PY, st.PZ, st.VX, st.VY, st.VZ, st.M} {
			r.Series = append(r.Series, col...)
		}
		r.Summary = fmt.Sprintf("nbody: %d bodies, %d steps", s.Nbody.N, s.Nbody.Steps)
	case "search":
		n := 1 + len(m.Search)
		for _, keys := range m.Search {
			n += len(keys)
		}
		r.ISeries = append(sized[int64](n), int64(len(m.Search)))
		for _, keys := range m.Search {
			r.ISeries = append(r.ISeries, int64(len(keys)))
		}
		for _, keys := range m.Search {
			r.ISeries = append(r.ISeries, keys...)
		}
		r.Summary = fmt.Sprintf("search: %d keys/node in array of %d", s.Search.K, s.Search.N)
	case "scatter":
		n := 0
		for _, part := range m.Scatter {
			n += len(part)
		}
		r.Series = sized[float64](n)
		r.ISeries = append(sized[int64](1+len(m.Scatter)), int64(len(m.Scatter)))
		for _, part := range m.Scatter {
			r.ISeries = append(r.ISeries, int64(len(part)))
			r.Series = append(r.Series, part...)
		}
		r.Summary = fmt.Sprintf("scatter: %d elements, %d iterations", s.Scatter.N, s.Scatter.Iters)
	default:
		return nil, fmt.Errorf("jobspec: unknown app %q", s.App)
	}
	return r, nil
}

// sized returns an empty slice with room for n elements: the flattening
// loops above append into their final size instead of regrowing. It is
// nil for n == 0, as appending nothing to a nil slice leaves it, so an
// empty payload still encodes as before.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// RunLocal executes a normalized sim or parallel spec in-process through
// dist.RunApp's single-node-shaped path — the simulator — and flattens
// the output. Distributed specs are the caller's business (they need a
// fleet); passing one is an error.
func RunLocal(s *Spec) (*Result, error) {
	if s.Backend == BackendDist {
		return nil, fmt.Errorf("jobspec: RunLocal cannot run a dist-backend spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := runSim(s)
	if err != nil {
		return nil, err
	}
	return FromMerged(s, m)
}

// runSim runs the spec under the simulator (sequential or parallel per
// Options) and shapes the native output like a distributed merge, so
// FromMerged is the single flattening path for every backend.
func runSim(s *Spec) (*dist.Merged, error) {
	opt := s.Options()
	m := &dist.Merged{}
	var rep *core.Report
	var err error
	switch s.App {
	case "cg":
		m.CG, rep, err = cg.RunPPM(opt, *s.CG)
	case "jacobi":
		m.Jacobi, rep, err = jacobi.RunPPM(opt, *s.Jacobi)
	case "colloc":
		m.Colloc, rep, err = colloc.RunPPM(opt, *s.Colloc)
	case "nbody":
		m.Nbody, rep, err = nbody.RunPPM(opt, *s.Nbody)
	case "search":
		m.Search, rep, err = search.RunPPM(opt, *s.Search)
	case "scatter":
		m.Scatter, rep, err = scatter.RunPPM(opt, *s.Scatter)
	default:
		return nil, fmt.Errorf("jobspec: unknown app %q", s.App)
	}
	if err != nil {
		return nil, err
	}
	m.PerNode = rep.PerNode
	m.Totals = rep.Totals
	return m, nil
}
