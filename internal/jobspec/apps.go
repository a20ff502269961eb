package jobspec

import (
	"flag"
	"fmt"

	"ppm/internal/dist"
)

// params is what every application's *Params provides (each declared
// beside the type, in its own package): the check a submission must pass
// before it may touch an engine, the 64-bit words a job hash covers in
// their encoding order, and the command-line flags.
type params interface {
	Validate() error
	Canonical() []uint64
	Flags(*flag.FlagSet)
}

// app is this package's half of an application's descriptor, over Spec
// and Result; dist's table holds the other half (run, fragment, merge)
// under the same name.
type app struct {
	// normalize allocates the application's parameter block if the spec
	// has none and fills its defaults.
	normalize func(s *Spec)
	// params returns that block; non-nil once normalized.
	params func(s *Spec) params
	// appSpec is the distributed runtime's spec of this job.
	appSpec func(s *Spec) dist.AppSpec
	// flatten lays the merged output out as r.Series / r.ISeries in the
	// layout FromMerged documents, each sized exactly, and writes
	// r.Summary.
	flatten func(s *Spec, m *dist.Merged, r *Result) error
}

var apps = map[string]app{
	"cg": {
		normalize: func(s *Spec) { s.CG = defaulted(s.CG) },
		params:    func(s *Spec) params { return s.CG },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, CG: value(s.CG)} },
		flatten: func(_ *Spec, m *dist.Merged, r *Result) error {
			if m.CG == nil {
				return fmt.Errorf("jobspec: cg run produced no result")
			}
			r.Series = append(append(make([]float64, 0, len(m.CG.X)+1), m.CG.X...), m.CG.Residual)
			r.ISeries = []int64{int64(m.CG.Iters)}
			r.Summary = fmt.Sprintf("cg: %d iterations, residual %.3e", m.CG.Iters, m.CG.Residual)
			return nil
		},
	},
	"colloc": {
		normalize: func(s *Spec) { s.Colloc = defaulted(s.Colloc) },
		params:    func(s *Spec) params { return s.Colloc },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, Colloc: value(s.Colloc)} },
		flatten: func(_ *Spec, m *dist.Merged, r *Result) error {
			if m.Colloc == nil {
				return fmt.Errorf("jobspec: colloc run produced no result")
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
			r.Summary = fmt.Sprintf("colloc: %d x %d matrix, %d nonzeros", m.Colloc.N, m.Colloc.N, nnz)
			return nil
		},
	},
	"nbody": {
		normalize: func(s *Spec) { s.Nbody = defaulted(s.Nbody) },
		params:    func(s *Spec) params { return s.Nbody },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, Nbody: value(s.Nbody)} },
		flatten: func(s *Spec, m *dist.Merged, r *Result) error {
			st := m.Nbody
			if st == nil {
				return fmt.Errorf("jobspec: nbody run produced no result")
			}
			r.Series = sized[float64](7 * len(st.PX))
			for _, col := range [][]float64{st.PX, st.PY, st.PZ, st.VX, st.VY, st.VZ, st.M} {
				r.Series = append(r.Series, col...)
			}
			r.Summary = fmt.Sprintf("nbody: %d bodies, %d steps", s.Nbody.N, s.Nbody.Steps)
			return nil
		},
	},
	"jacobi": {
		normalize: func(s *Spec) { s.Jacobi = defaulted(s.Jacobi) },
		params:    func(s *Spec) params { return s.Jacobi },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, Jacobi: value(s.Jacobi)} },
		flatten: func(s *Spec, m *dist.Merged, r *Result) error {
			r.Series = m.Jacobi
			r.Summary = fmt.Sprintf("jacobi: %dx%dx%d grid, %d sweeps",
				s.Jacobi.NX, s.Jacobi.NY, s.Jacobi.NZ, s.Jacobi.Sweeps)
			return nil
		},
	},
	"search": {
		normalize: func(s *Spec) { s.Search = defaulted(s.Search) },
		params:    func(s *Spec) params { return s.Search },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, Search: value(s.Search)} },
		flatten: func(s *Spec, m *dist.Merged, r *Result) error {
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
			return nil
		},
	},
	"scatter": {
		normalize: func(s *Spec) { s.Scatter = defaulted(s.Scatter) },
		params:    func(s *Spec) params { return s.Scatter },
		appSpec:   func(s *Spec) dist.AppSpec { return dist.AppSpec{App: s.App, Scatter: value(s.Scatter)} },
		flatten: func(s *Spec, m *dist.Merged, r *Result) error {
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
			return nil
		},
	},
}

// defaulted returns the block with its zero fields filled, allocating an
// absent one: an absent block, an empty one and explicit defaults all
// normalize to the same values.
func defaulted[P interface{ WithDefaults() P }](p *P) *P {
	if p == nil {
		p = new(P)
	}
	*p = (*p).WithDefaults()
	return p
}

// value dereferences a block, an absent one giving zero parameters.
func value[P any](p *P) (v P) {
	if p != nil {
		v = *p
	}
	return v
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

// Flags declares every registered application's parameter flags on fs
// and returns pick, which after fs.Parse gives the spec the flags
// describe for one application: App and its parameter block, nothing
// else set. An unknown name gives a spec Validate will refuse. A flag
// left at zero means the default, as an absent or zero field does in a
// JSON spec, so pick(app) of an empty command line normalizes to exactly
// what {"app": app} does.
func Flags(fs *flag.FlagSet) (pick func(app string) *Spec) {
	specs := make(map[string]*Spec, len(apps))
	for name, a := range apps {
		s := &Spec{App: name}
		a.normalize(s)
		a.params(s).Flags(fs)
		specs[name] = s
	}
	return func(app string) *Spec {
		if s, ok := specs[app]; ok {
			return s
		}
		return &Spec{App: app}
	}
}
