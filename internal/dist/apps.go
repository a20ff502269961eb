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
	"ppm/internal/partition"
	"ppm/internal/wire"
)

// MPIOptions shapes a message-passing baseline run. The apps that have
// one declare structurally identical option types; this converts to each.
type MPIOptions = cg.MPIOptions

// app is this package's half of an application's descriptor: how it runs
// and how its output crosses processes, over the typed fields of AppSpec,
// NodeResult and Merged. internal/jobspec holds the other half under the
// same names; defaults, validation, flags and hash fields are methods of
// each app's Params.
type app struct {
	name string
	// run executes the PPM program under any runner — the simulator
	// (core.Run) or one rank of a mesh, whose output is complete only in
	// the part fragment takes — and leaves the native output in m.
	run func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (*core.Report, error)
	// runMPI is the message-passing baseline; nil where there is none.
	runMPI func(opt MPIOptions, spec AppSpec, m *Merged) (*cluster.Report, error)
	// fragment copies one rank's share of a mesh run's output into res;
	// merge reassembles every rank's fragment into m.
	fragment func(spec AppSpec, m *Merged, rank, nodes int, res *NodeResult)
	merge    func(spec AppSpec, results []NodeResult, m *Merged) error
}

// apps is the registry, in the order applications are listed to users.
var apps = []app{
	{
		name: "cg",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.CG, rep, err = cg.RunPPMOn(run, opt, spec.CG)
			return
		},
		runMPI: func(opt MPIOptions, spec AppSpec, m *Merged) (rep *cluster.Report, err error) {
			m.CG, rep, err = cg.RunMPI(opt, spec.CG)
			return
		},
		fragment: func(_ AppSpec, m *Merged, rank, _ int, res *NodeResult) {
			if rank == 0 {
				res.CG = &CGFrag{X: m.CG.X, Iters: m.CG.Iters, Residual: wire.Float64(m.CG.Residual)}
			}
		},
		merge: func(_ AppSpec, results []NodeResult, m *Merged) error {
			f := results[0].CG
			if f == nil {
				return fmt.Errorf("dist: rank 0 reported no cg result")
			}
			m.CG = &cg.Result{X: f.X, Iters: f.Iters, Residual: float64(f.Residual)}
			return nil
		},
	},
	{
		name: "colloc",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.Colloc, rep, err = colloc.RunPPMOn(run, opt, spec.Colloc)
			return
		},
		runMPI: func(opt MPIOptions, spec AppSpec, m *Merged) (rep *cluster.Report, err error) {
			m.Colloc, rep, err = colloc.RunMPI(colloc.MPIOptions(opt), spec.Colloc)
			return
		},
		// Rows are dealt cyclically, so a fragment lists its row indices.
		fragment: func(_ AppSpec, m *Merged, rank, nodes int, res *NodeResult) {
			f := &CollocFrag{N: m.Colloc.N}
			for i := rank; i < m.Colloc.N; i += nodes {
				f.Rows = append(f.Rows, i)
				f.Entries = append(f.Entries, m.Colloc.Rows[i])
			}
			res.Colloc = f
		},
		merge: func(_ AppSpec, results []NodeResult, m *Merged) error {
			if results[0].Colloc == nil {
				return fmt.Errorf("dist: rank 0 reported no colloc rows")
			}
			n := results[0].Colloc.N
			m.Colloc = &colloc.Matrix{N: n, Rows: make([][]colloc.Entry, n)}
			for _, r := range results {
				f := r.Colloc
				if f == nil || len(f.Entries) != len(f.Rows) {
					return fmt.Errorf("dist: rank %d reported a malformed colloc fragment", r.Rank)
				}
				for k, i := range f.Rows {
					if i < 0 || i >= n {
						return fmt.Errorf("dist: rank %d reported row %d of %d", r.Rank, i, n)
					}
					m.Colloc.Rows[i] = f.Entries[k]
				}
			}
			return nil
		},
	},
	{
		name: "nbody",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.Nbody, rep, err = nbody.RunPPMOn(run, opt, spec.Nbody)
			return
		},
		runMPI: func(opt MPIOptions, spec AppSpec, m *Merged) (rep *cluster.Report, err error) {
			m.Nbody, rep, err = nbody.RunMPI(nbody.MPIOptions(opt), spec.Nbody)
			return
		},
		fragment: func(spec AppSpec, m *Merged, rank, nodes int, res *NodeResult) {
			out := m.Nbody
			lo, hi := partition.NewBlock(spec.Nbody.N, nodes).Range(rank)
			f := &NbodyFrag{
				Lo: lo, Hi: hi,
				PX: out.PX[lo:hi], PY: out.PY[lo:hi], PZ: out.PZ[lo:hi],
				VX: out.VX[lo:hi], VY: out.VY[lo:hi], VZ: out.VZ[lo:hi],
			}
			if rank == 0 {
				f.M = out.M
			}
			res.Nbody = f
		},
		merge: func(spec AppSpec, results []NodeResult, m *Merged) error {
			n := spec.Nbody.N
			out := &nbody.State{
				PX: make([]float64, n), PY: make([]float64, n), PZ: make([]float64, n),
				VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
			}
			for _, r := range results {
				f := r.Nbody
				if f == nil || f.Lo < 0 || f.Lo > f.Hi || f.Hi > n || !sameLen(f.Hi-f.Lo, f.PX, f.PY, f.PZ, f.VX, f.VY, f.VZ) {
					return fmt.Errorf("dist: rank %d reported a malformed nbody fragment", r.Rank)
				}
				copy(out.PX[f.Lo:f.Hi], f.PX)
				copy(out.PY[f.Lo:f.Hi], f.PY)
				copy(out.PZ[f.Lo:f.Hi], f.PZ)
				copy(out.VX[f.Lo:f.Hi], f.VX)
				copy(out.VY[f.Lo:f.Hi], f.VY)
				copy(out.VZ[f.Lo:f.Hi], f.VZ)
				if f.M != nil {
					out.M = f.M
				}
			}
			m.Nbody = out
			return nil
		},
	},
	{
		name: "jacobi",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.Jacobi, rep, err = jacobi.RunPPMOn(run, opt, spec.Jacobi)
			return
		},
		runMPI: func(opt MPIOptions, spec AppSpec, m *Merged) (rep *cluster.Report, err error) {
			m.Jacobi, rep, err = jacobi.RunMPI(jacobi.MPIOptions(opt), spec.Jacobi)
			return
		},
		fragment: func(_ AppSpec, m *Merged, rank, _ int, res *NodeResult) {
			if rank == 0 {
				res.Jacobi = m.Jacobi
			}
		},
		merge: func(_ AppSpec, results []NodeResult, m *Merged) error {
			if m.Jacobi = results[0].Jacobi; m.Jacobi == nil {
				return fmt.Errorf("dist: rank 0 reported no jacobi result")
			}
			return nil
		},
	},
	{
		name: "search",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.Search, rep, err = search.RunPPMOn(run, opt, spec.Search)
			return
		},
		fragment: func(_ AppSpec, m *Merged, rank, _ int, res *NodeResult) { res.Search = m.Search[rank] },
		merge: func(_ AppSpec, results []NodeResult, m *Merged) error {
			m.Search = make([][]int64, len(results))
			for i, r := range results {
				m.Search[i] = r.Search
			}
			return nil
		},
	},
	{
		name: "scatter",
		run: func(run core.Runner, opt core.Options, spec AppSpec, m *Merged) (rep *core.Report, err error) {
			m.Scatter, rep, err = scatter.RunPPMOn(run, opt, spec.Scatter)
			return
		},
		fragment: func(_ AppSpec, m *Merged, rank, _ int, res *NodeResult) { res.Scatter = m.Scatter[rank] },
		merge: func(_ AppSpec, results []NodeResult, m *Merged) error {
			m.Scatter = make([][]float64, len(results))
			for i, r := range results {
				m.Scatter[i] = r.Scatter
			}
			return nil
		},
	},
}

// sameLen reports whether every slice has n elements.
func sameLen(n int, s ...wire.Float64s) bool {
	for _, v := range s {
		if len(v) != n {
			return false
		}
	}
	return true
}

// AppNames lists the registered applications in display order.
func AppNames() []string {
	names := make([]string, len(apps))
	for i := range apps {
		names[i] = apps[i].name
	}
	return names
}

// lookup finds an application's entry; its error is the one message that
// lists the applications, wherever an unknown name is reported.
func lookup(name string) (*app, error) {
	for i := range apps {
		if apps[i].name == name {
			return &apps[i], nil
		}
	}
	return nil, fmt.Errorf("unknown app %q (want %s)", name, strings.Join(AppNames(), ", "))
}

// CheckApp reports whether name is a registered application.
func CheckApp(name string) error {
	_, err := lookup(name)
	return err
}
