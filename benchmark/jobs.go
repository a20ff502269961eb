package main

import (
	"fmt"
	"math"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// job is one unit of a round: a jobspec the product runs, or one of the
// benchmark's own programs (programs.go). Either way its output is
// compared bit for bit against the simulator's for the same seed.
type job struct {
	name string // metric suffix, e.g. "cg", "add-sparse"
	spec *jobspec.Spec
	prog program      // when spec is nil
	opt  core.Options // when spec is nil
	seed uint64       // when spec is nil
	key  string       // warm-session key: reuse is scoped to identical jobs

	ref    reference
	merged *dist.Merged // the simulator's output in merged shape (spec jobs)
}

// outcome is what any backend returns for a job.
type outcome struct {
	series  []float64
	iseries []int64
	totals  core.NodeStats
}

// reference is the simulator's outcome plus the modeled makespan, the
// paper's own quantity.
type reference struct {
	outcome
	makespanMS float64
}

func specJob(name string, s *jobspec.Spec) *job {
	s.Normalize()
	return &job{name: name, spec: s, key: s.Hash()}
}

func progJob(name string, p program, nodes, cores int, seed uint64) *job {
	return &job{
		name: name, prog: p, seed: seed,
		opt: core.Options{Nodes: nodes, CoresPerNode: cores},
		key: fmt.Sprintf("%s/%d", name, seed),
	}
}

// options returns the core.Options the job runs under on a mesh: the
// node always runs the distributed runtime, whatever the spec's backend.
func (j *job) options() core.Options {
	if j.spec == nil {
		return j.opt
	}
	opt := j.spec.Options()
	opt.Parallel = false
	return opt
}

// simRun runs a spec under the simulator with the given options and
// returns the output in merged shape together with the full report
// (jobspec.RunLocal drops the report's cluster half, and takes no
// Observer).
func simRun(s *jobspec.Spec, opt core.Options) (*dist.Merged, *core.Report, error) {
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
		err = fmt.Errorf("unknown app %q", s.App)
	}
	if err != nil {
		return nil, nil, err
	}
	m.PerNode, m.Totals = rep.PerNode, rep.Totals
	return m, rep, nil
}

// makeReference runs the job under the sequential simulator.
func (j *job) makeReference() error {
	if j.spec == nil {
		out, rep, err := runProgram(core.Run, j.opt, j.prog, j.seed)
		if err != nil {
			return fmt.Errorf("%s: simulator reference: %w", j.name, err)
		}
		j.ref = reference{outcome{series: flatten(out), totals: rep.Totals}, rep.Makespan().Seconds() * 1e3}
		return nil
	}
	if err := j.spec.Validate(); err != nil {
		return err
	}
	m, rep, err := simRun(j.spec, j.options())
	if err != nil {
		return fmt.Errorf("%s: simulator reference: %w", j.name, err)
	}
	res, err := jobspec.FromMerged(j.spec, m)
	if err != nil {
		return err
	}
	j.merged = m
	j.ref = reference{resultOutcome(res), rep.Makespan().Seconds() * 1e3}
	return nil
}

func resultOutcome(r *jobspec.Result) outcome {
	return outcome{series: r.Series, iseries: r.ISeries, totals: r.Totals}
}

func flatten(parts [][]float64) []float64 {
	var out []float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// programCounters are the NodeStats fields that describe the program,
// not the substrate it ran on: they must equal the simulator's on every
// backend and repeat exactly from run to run.
type programCounters struct {
	GlobalPhases, SharedReads, SharedWrites int64
	RemoteReadElems, RemoteWriteElems       int64
	BundlesOut, BytesOut                    int64
}

func countersOf(s core.NodeStats) programCounters {
	return programCounters{
		s.GlobalPhases, s.SharedReads, s.SharedWrites,
		s.RemoteReadElems, s.RemoteWriteElems, s.BundlesOut, s.BytesOut,
	}
}

// check compares a backend's outcome with the reference: outputs
// Float64bits for Float64bits, program counters exactly.
func (j *job) check(got outcome) error {
	want := j.ref.outcome
	if len(got.series) != len(want.series) || len(got.iseries) != len(want.iseries) {
		return fmt.Errorf("%s: got %d floats and %d ints, the simulator gives %d and %d",
			j.name, len(got.series), len(got.iseries), len(want.series), len(want.iseries))
	}
	for i, w := range want.series {
		if math.Float64bits(got.series[i]) != math.Float64bits(w) {
			return fmt.Errorf("%s: series[%d] = %v (%#x), the simulator gives %v (%#x)",
				j.name, i, got.series[i], math.Float64bits(got.series[i]), w, math.Float64bits(w))
		}
	}
	for i, w := range want.iseries {
		if got.iseries[i] != w {
			return fmt.Errorf("%s: iseries[%d] = %d, the simulator gives %d", j.name, i, got.iseries[i], w)
		}
	}
	if g, w := countersOf(got.totals), countersOf(want.totals); g != w {
		return fmt.Errorf("%s: program counters %+v, the simulator gives %+v", j.name, g, w)
	}
	return nil
}
