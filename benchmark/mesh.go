package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// mesh is a set of co-hosted ranks on loopback TCP: one dist.Engine per
// rank in this process, which is exactly what `ppm-node -procs 1` hosts,
// with one serve-style warm session per rank.
type mesh struct {
	dir      string
	engs     []*dist.Engine
	traced   []*tracedEngine // wrappers over engs, made on first traced run
	sessions []*core.WarmSession
}

var meshSeq atomic.Int64

// connectMesh brings up nodes engines concurrently (mesh formation
// needs every listener up) in a fresh rendezvous directory under a
// fresh run id, so nothing left by an earlier mesh can be dialed.
func connectMesh(workDir string, nodes int) (*mesh, error) {
	seq := meshSeq.Add(1)
	dir, err := os.MkdirTemp(workDir, "mesh-")
	if err != nil {
		return nil, err
	}
	m := &mesh{dir: dir, engs: make([]*dist.Engine, nodes), sessions: make([]*core.WarmSession, nodes)}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m.engs[r], errs[r] = dist.Connect(dist.Config{
				Rank: r, Nodes: nodes, RendezvousDir: dir,
				RunID: fmt.Sprintf("bench-%d-%d", os.Getpid(), seq),
			})
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.close()
		return nil, fmt.Errorf("connecting a %d-rank mesh: %w", nodes, err)
	}
	for r := range m.sessions {
		m.sessions[r] = core.NewWarmSession()
	}
	return m, nil
}

// close retires the warm sessions' parked workers, then closes every
// engine concurrently: Close waits for each peer's Bye, so closing in
// sequence would sit out DrainTimeout once per rank.
func (m *mesh) close() error {
	errs := make([]error, len(m.engs))
	var wg sync.WaitGroup
	for r, eng := range m.engs {
		if eng == nil {
			continue
		}
		if m.sessions[r] != nil {
			m.sessions[r].Discard()
		}
		wg.Add(1)
		go func(r int, eng *dist.Engine) {
			defer wg.Done()
			errs[r] = eng.Close()
		}(r, eng)
	}
	wg.Wait()
	return errors.Join(append(errs, os.RemoveAll(m.dir))...)
}

// traceCtx says where a traced job's spans hang; the zero value (nil
// tracer) runs the job on the bare engines with no hooks.
type traceCtx struct {
	tr      *tracer
	parent  int32
	round   int
	capture int // bytes of outgoing commit streams each wrapper may keep of this job
}

// run executes one job on every rank at once (ranks are peers in one
// phase-synchronized mesh) and merges the fragments. With a tracer it
// runs through the wrappers, under one core.RunApp span per rank.
func (m *mesh) run(j *job, tc traceCtx) (outcome, []dist.NodeResult, error) {
	n := len(m.engs)
	if tc.tr != nil && m.traced == nil {
		for _, eng := range m.engs {
			m.traced = append(m.traced, newTracedEngine(eng, tc.tr))
		}
	}
	results := make([]dist.NodeResult, n)
	parts := make([][]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opt := j.options()
			m.sessions[r].SetKey(j.key)
			opt.Warm = m.sessions[r]
			var eng core.DistEngine = m.engs[r]
			if tc.tr != nil {
				id := tc.tr.begin(spanRunApp, tc.parent, tc.round, r)
				defer tc.tr.end(id)
				m.traced[r].attach(id, tc.round, tc.capture)
				eng = m.traced[r]
				if r == 0 {
					last := tc.tr.now()
					first := true
					opt.OnPhase = func(int64) {
						now := tc.tr.now()
						if !first {
							tc.tr.record(spanPhase, last, now, id, tc.round, 0)
						}
						first, last = false, now
					}
				}
			}
			if j.spec != nil {
				results[r] = *dist.RunApp(eng, opt, j.spec.AppSpec())
				return
			}
			out, rep, err := runProgram(func(o core.Options, prog func(*core.Runtime)) (*core.Report, error) {
				return core.RunDist(o, eng, prog)
			}, opt, j.prog, j.seed)
			results[r].Rank = r
			if err != nil {
				results[r].Err = err.Error()
				return
			}
			results[r].Stats = rep.PerNode[r]
			parts[r] = out[r]
		}(r)
	}
	wg.Wait()
	if j.spec != nil {
		merged, err := dist.Merge(j.spec.AppSpec(), results)
		if err != nil {
			return outcome{}, nil, err
		}
		res, err := jobspec.FromMerged(j.spec, merged)
		if err != nil {
			return outcome{}, nil, err
		}
		return resultOutcome(res), results, nil
	}
	out := outcome{series: flatten(parts)}
	for _, r := range results {
		if r.Err != "" {
			return outcome{}, nil, fmt.Errorf("%s: rank %d: %s", j.name, r.Rank, r.Err)
		}
		out.totals.Add(r.Stats)
	}
	return out, results, nil
}

const (
	spanRunApp = "core.RunApp" // one rank's share of one job
	spanPhase  = "core.Phase"  // gap between two rank-0 OnPhase calls
)
