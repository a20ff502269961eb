package jobspec

import (
	"fmt"

	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/wire"
)

// Result is the job outcome every execution path produces: the
// application output flattened into Series/ISeries (a deterministic
// per-app layout, so two runs of the same spec can be compared
// Float64bits-for-Float64bits without knowing the app's native shape),
// plus the run's per-node statistics. Its JSON form carries Series and
// ISeries as base64 of little-endian 64-bit words (wire.Float64s), so it
// round-trips bit-exactly, NaN payloads and infinities included.
type Result struct {
	Hash    string `json:"hash"`
	App     string `json:"app"`
	Backend string `json:"backend"`

	// Series is the flattened float64 payload; ISeries the integer
	// payload (lengths, indices, int outputs). See FromMerged for
	// the per-app layout.
	Series  wire.Float64s `json:"series"`
	ISeries wire.Int64s   `json:"iseries,omitempty"`

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
	a, ok := apps[s.App]
	if !ok {
		return nil, fmt.Errorf("jobspec: %w", dist.CheckApp(s.App))
	}
	if err := a.flatten(s, m, r); err != nil {
		return nil, err
	}
	return r, nil
}

// RunLocal executes a normalized sim or parallel spec in-process, on the
// simulator under the spec's own options, and flattens the output.
// Distributed specs are the caller's business (they need a fleet);
// passing one is an error.
func RunLocal(s *Spec) (*Result, error) {
	if s.Backend == BackendDist {
		return nil, fmt.Errorf("jobspec: RunLocal cannot run a dist-backend spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	res, _, err := Run(s, s.Options())
	return res, err
}

// Run executes a normalized, validated sim- or parallel-backend spec on
// the simulator under opt: s.Options(), or the caller's variation of it
// (an Observer, a machine switch). It returns the flattened output and
// the full report, cluster half included.
func Run(s *Spec, opt core.Options) (*Result, *core.Report, error) {
	m, rep, err := dist.RunSim(opt, s.AppSpec())
	if err != nil {
		return nil, rep, err
	}
	res, err := FromMerged(s, m)
	return res, rep, err
}
