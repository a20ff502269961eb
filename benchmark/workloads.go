package main

import (
	"fmt"
	"strings"
	"time"

	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// env is what a workload is given: the seed its inputs come from, a
// scratch directory inside the checkout, and the product binaries.
type env struct {
	seed      uint64
	workDir   string
	nodeBin   string
	serverBin string
}

// workload is a fixed, ordered round of jobs. The harness sets it up,
// repeats the round in a closed loop with one client, and tears it
// down; every job is checked against its simulator reference.
type workload interface {
	// needsBinaries reports whether setUp forks ppm-server / ppm-node.
	needsBinaries() bool
	// setUp makes the inputs and references and brings up what the round
	// runs on.
	setUp(e *env) error
	// round runs the round once. tc carries the tracer on traced rounds.
	round(tc traceCtx, t *tally) roundCount
	tearDown() error
	// probe fills in the workload's layer metrics after its traced
	// rounds: from their spans and samples (rounds is how many there
	// were, so counts read per round), and from direct calls into the
	// layers the spans cannot split.
	probe(e *env, tr *tracer, t *tally, rounds float64, m metrics) error
}

// roundCount is what one round did: ops attempted (jobs, plus plain
// reads of a stored result), ops failed, jobs completed correctly.
type roundCount struct{ attempted, failed, jobs int }

// tally accumulates what finished jobs report over a window.
type tally struct {
	stats   core.NodeStats       // summed Totals of every checked job
	samples map[string][]float64 // named duration samples, in ms
	err     error                // first failure, for the report
	// makespanMS sums the simulator's modeled makespan of every job that
	// ran: the paper's own quantity, and exact.
	makespanMS float64
}

func newTally() *tally { return &tally{samples: make(map[string][]float64)} }

func (t *tally) add(name string, ms float64) { t.samples[name] = append(t.samples[name], ms) }

// settle checks one finished op against the job's reference and
// reports whether it passed.
func (t *tally) settle(j *job, got outcome, err error, rc *roundCount) bool {
	rc.attempted++
	if err == nil {
		err = j.check(got)
	}
	if err != nil {
		rc.failed++
		if t.err == nil {
			t.err = err
		}
		return false
	}
	return true
}

// settleRun settles a job that really ran: it counts as a completed job
// and its counters are booked.
func (t *tally) settleRun(j *job, got outcome, err error, rc *roundCount) bool {
	if !t.settle(j, got, err, rc) {
		return false
	}
	rc.jobs++
	t.stats.Add(got.totals)
	t.makespanMS += j.ref.makespanMS
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func makeReferences(js []*job) error {
	for _, j := range js {
		if err := j.makeReference(); err != nil {
			return err
		}
	}
	return nil
}

// --- sim-figures ---------------------------------------------------------

// simFigures runs the paper's own surface through jobspec.RunLocal:
// cluster and core do all the work; dist, wire and server do none.
type simFigures struct{ js []*job }

const spanRunLocal = "jobspec.RunLocal"

func (w *simFigures) needsBinaries() bool { return false }
func (w *simFigures) tearDown() error     { return nil }

func (w *simFigures) setUp(e *env) error {
	w.js = []*job{
		specJob("cg", &jobspec.Spec{App: "cg"}),
		specJob("colloc", &jobspec.Spec{App: "colloc"}),
		specJob("nbody", &jobspec.Spec{App: "nbody", Nbody: &nbody.Params{Seed: e.seed}}),
		specJob("jacobi", &jobspec.Spec{App: "jacobi"}),
	}
	for _, n := range []int{1, 2, 4, 8} {
		w.js = append(w.js, specJob(fmt.Sprintf("scatter-%d", n),
			&jobspec.Spec{App: "scatter", Nodes: n, Scatter: &scatter.Params{Seed: e.seed}}))
	}
	// Scalar remote reads cost the host far more per access than block
	// reads, so search puts the second access path in the round.
	for _, n := range []int{1, 2, 4} {
		w.js = append(w.js, specJob(fmt.Sprintf("search-%d", n),
			&jobspec.Spec{App: "search", Nodes: n, Search: &search.Params{N: 1 << 18, K: 1 << 12, Seed: e.seed}}))
	}
	return makeReferences(w.js)
}

func (w *simFigures) round(tc traceCtx, t *tally) roundCount {
	var rc roundCount
	perApp := make(map[string]float64)
	for _, j := range w.js {
		id := tc.tr.begin(spanRunLocal+":"+j.name, tc.parent, tc.round, -1)
		start := time.Now()
		res, err := jobspec.RunLocal(j.spec)
		perApp[j.spec.App] += ms(time.Since(start))
		tc.tr.end(id)
		var got outcome
		if err == nil {
			got = resultOutcome(res)
		}
		t.settleRun(j, got, err, &rc)
	}
	for app, v := range perApp {
		t.add("sim."+app, v)
	}
	return rc
}

// --- mesh-reads and mesh-commits -----------------------------------------

// meshWorkload runs its jobs on co-hosted ranks, each job twice back to
// back: the warm session is keyed by job, so the first run of a pair is
// plan-cold and the second plan-warm.
type meshWorkload struct {
	nodes   int
	commits bool // the jobs put bytes on the commit plane
	mkJobs  func(seed uint64) []*job
	js      []*job
	m       *mesh
	results map[string][]dist.NodeResult // last per-rank results of each spec job
}

func (w *meshWorkload) needsBinaries() bool { return false }

func (w *meshWorkload) setUp(e *env) error {
	w.js = w.mkJobs(e.seed)
	w.results = make(map[string][]dist.NodeResult)
	if err := makeReferences(w.js); err != nil {
		return err
	}
	var err error
	w.m, err = connectMesh(e.workDir, w.nodes)
	return err
}

func (w *meshWorkload) tearDown() error { return w.m.close() }

func (w *meshWorkload) round(tc traceCtx, t *tally) roundCount {
	var rc roundCount
	for _, j := range w.js {
		for _, variant := range []string{"cold", "warm"} {
			jc := tc
			jc.parent = tc.tr.begin("job:"+j.name+":"+variant, tc.parent, tc.round, -1)
			if tc.round == 0 && variant == "cold" {
				jc.capture = captureLimit
			}
			start := time.Now()
			got, results, err := w.m.run(j, jc)
			t.add(variant+"."+j.name, ms(time.Since(start)))
			tc.tr.end(jc.parent)
			if j.spec != nil && err == nil {
				w.results[j.name] = results
			}
			t.settleRun(j, got, err, &rc)
		}
	}
	return rc
}

// The figure apps write owner-locally: commit streams are empty and
// dist.Fetch round trips dominate.
func meshReads() *meshWorkload {
	return &meshWorkload{nodes: 2, mkJobs: func(seed uint64) []*job {
		spec := func(s jobspec.Spec) *jobspec.Spec {
			s.Backend, s.Nodes, s.Cores = jobspec.BackendDist, 2, 2
			return &s
		}
		return []*job{
			specJob("cg", spec(jobspec.Spec{App: "cg"})),
			specJob("jacobi", spec(jobspec.Spec{App: "jacobi"})),
			specJob("colloc", spec(jobspec.Spec{App: "colloc"})),
			specJob("nbody", spec(jobspec.Spec{App: "nbody", Nbody: &nbody.Params{N: 1500, Steps: 1, Seed: seed}})),
			specJob("search", spec(jobspec.Spec{App: "search", Search: &search.Params{N: 1 << 16, K: 1 << 9, Seed: seed}})),
		}
	}}
}

// The only shapes whose remote commit stream is non-empty: sparse runs,
// dense runs, and many near-empty phases (the fixed cost of a commit
// barrier).
func meshCommits() *meshWorkload {
	return &meshWorkload{nodes: 3, commits: true, mkJobs: func(seed uint64) []*job {
		return []*job{
			progJob("add-sparse", addSparse, 3, 2, seed),
			progJob("write-dense", writeDense, 3, 2, seed),
			specJob("phase-latency", &jobspec.Spec{
				App: "scatter", Backend: jobspec.BackendDist, Nodes: 3, Cores: 2,
				Scatter: &scatter.Params{Iters: 64, Seed: seed},
			}),
		}
	}}
}

// --- probes ---------------------------------------------------------------

func (w *simFigures) probe(e *env, tr *tracer, t *tally, rounds float64, m metrics) error {
	var simMS float64
	for name, v := range t.samples {
		if app, ok := strings.CutPrefix(name, "sim."); ok {
			m.setMedian("core.sim_ms."+app, v)
			simMS += sum(v)
		}
	}
	simMS /= rounds
	// Under the simulator core has no dist calls to wait in: all of a
	// job's host time is core's and cluster's own.
	m["core.self_ms"] = simMS
	if acc := t.stats.SharedReads + t.stats.SharedWrites; acc > 0 {
		m["core.sim_ns_per_access"] = simMS * 1e6 * rounds / float64(acc)
	}
	if err := probeJobspec(w.js, nil, m); err != nil {
		return err
	}
	return probeSimModel(w.js, simMS, m)
}

func (w *meshWorkload) probe(e *env, tr *tracer, t *tally, rounds float64, m metrics) error {
	spanMetrics(tr, rounds, m)
	for _, j := range w.js {
		m.setMedian("core.job_ms_cold."+j.name, t.samples["cold."+j.name])
		m.setMedian("core.job_ms_warm."+j.name, t.samples["warm."+j.name])
	}
	var fetched, committed int64
	var streams [][]byte
	for _, te := range w.m.traced {
		fetched += te.fetchBytes.Load()
		committed += te.commitBytes.Load()
		streams = append(streams, te.captured...)
	}
	m["dist.fetch_kb"] = float64(fetched) / 1024 / rounds
	m["dist.commit_kb_out"] = float64(committed) / 1024 / rounds
	if err := probeJobspec(w.js, w.results, m); err != nil {
		return err
	}
	if err := probeMeshLifecycle(e, w.nodes, m); err != nil {
		return err
	}
	if w.commits {
		return probeWire(streams, m)
	}
	return probeLaunch(e, m)
}
