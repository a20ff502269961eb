package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppm/internal/apps/scatter"
	"ppm/internal/dist"
	"ppm/internal/jobspec"
	"ppm/internal/server"
)

// clientConns caps the benchmark's HTTP connections to the server. Two
// is what the server's default two workers can keep busy, and what a
// two-CPU host can drive without the client queueing on itself.
const clientConns = 2

// Span names of the served round, all measured at the client.
const (
	spanSubmit     = "server.submit"      // POST /v1/jobs round trip of a queued job
	spanFirstPhase = "server.first_phase" // 202 to first SSE phase event
	spanPhaseSpan  = "server.phase_span"  // first to last SSE phase event
	spanTail       = "server.tail"        // last SSE phase event to done
	spanCached     = "server.cached"      // POST answered from the result cache
	spanResultGet  = "server.result_get"  // GET /v1/results/{hash}
)

// servedMix drives a real ppm-server with default flags over HTTP: the
// only workload that crosses process boundaries and the queue, pool,
// cache and JSON paths.
type servedMix struct {
	js      []*job // cg, jacobi, scatter (dist, 2x2) and jacobi-sim (sim, 4x4)
	nodeBin string
	cmd     *exec.Cmd
	stdout  chan struct{} // closed when the server's stdout hits EOF
	base    string
	client  *http.Client
	refused int
}

func (w *servedMix) needsBinaries() bool { return true }

func (w *servedMix) setUp(e *env) error {
	dist22 := func(s jobspec.Spec) *jobspec.Spec {
		s.Backend, s.Nodes, s.Cores = jobspec.BackendDist, 2, 2
		return &s
	}
	w.js = []*job{
		specJob("cg", dist22(jobspec.Spec{App: "cg"})),
		specJob("jacobi", dist22(jobspec.Spec{App: "jacobi"})),
		specJob("scatter", dist22(jobspec.Spec{App: "scatter", Scatter: &scatter.Params{Seed: e.seed}})),
		specJob("jacobi-sim", &jobspec.Spec{App: "jacobi", Nodes: 4, Cores: 4}),
	}
	if err := makeReferences(w.js); err != nil {
		return err
	}
	w.nodeBin = e.nodeBin
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}}

	w.cmd = exec.Command(e.serverBin, "-addr", "127.0.0.1:0", "-node-bin", e.nodeBin)
	errLog, err := os.Create(filepath.Join(e.workDir, "ppm-server.stderr"))
	if err != nil {
		return err
	}
	defer errLog.Close()
	w.cmd.Stderr = errLog
	out, err := w.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := w.cmd.Start(); err != nil {
		return fmt.Errorf("starting ppm-server: %w", err)
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	w.stdout = make(chan struct{})
	go func() {
		io.Copy(io.Discard, br)
		close(w.stdout)
	}()
	const banner = "ppm-server: listening on "
	if err != nil || !strings.HasPrefix(line, banner) {
		w.tearDown()
		return fmt.Errorf("ppm-server did not announce its address: %q, %v", line, err)
	}
	w.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, banner))
	return nil
}

// tearDown stops the server the way an operator would and holds it to
// its contract: SIGTERM drains, exits 0, and leaves no ppm-node behind.
func (w *servedMix) tearDown() error {
	w.client.CloseIdleConnections()
	w.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-w.stdout
		exited <- w.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("ppm-server after SIGTERM: %w", err)
		}
	case <-time.After(40 * time.Second): // the server's own drain bound is 30 s
		w.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("ppm-server did not exit within 40 s of SIGTERM")
	}
	if pids := processesRunning(w.nodeBin); len(pids) > 0 {
		for _, pid := range pids {
			syscall.Kill(pid, syscall.SIGKILL)
		}
		return fmt.Errorf("ppm-server exited 0 but left ppm-node processes %v running", pids)
	}
	return nil
}

// submission is one queued job as the client sees it.
type submission struct {
	j        *job
	id       string
	accepted int64 // tracer time of the 202
	done     int64 // tracer time of the SSE done event
	got      outcome
	err      error
}

func (w *servedMix) postJob(j *job, noCache bool) (*server.SubmitResponse, int, error) {
	body, err := json.Marshal(server.SubmitRequest{Tenant: "bench", NoCache: noCache, Spec: *j.spec})
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.client.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		w.refused++
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, resp.StatusCode, fmt.Errorf("%s: POST /v1/jobs: %s: %s", j.name, resp.Status, bytes.TrimSpace(msg))
	}
	var sr server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, resp.StatusCode, err
	}
	return &sr, resp.StatusCode, nil
}

func (w *servedMix) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit queues a no_cache job and records the POST round trip.
func (w *servedMix) submit(j *job, tc traceCtx) *submission {
	id := tc.tr.begin(spanSubmit, tc.parent, tc.round, -1)
	sr, code, err := w.postJob(j, true)
	tc.tr.end(id)
	sub := &submission{j: j, err: err}
	if err == nil && code != http.StatusAccepted {
		sub.err = fmt.Errorf("%s: a no_cache submission was answered %d, want 202", j.name, code)
	}
	if sub.err == nil {
		sub.id = sr.ID
		if tc.tr != nil {
			sub.accepted = tc.tr.now()
		}
	}
	return sub
}

// await follows the job's SSE stream to its done event, then fetches
// the result. On traced rounds it splits the job's life at the phase
// events: queue wait + fleet acquire + dispatch, the phases themselves,
// and the tail (NodeResult JSON over stdout, merge, flatten, cache put).
func (w *servedMix) await(sub *submission, tc traceCtx) {
	if sub.err != nil {
		return
	}
	resp, err := w.client.Get(w.base + "/v1/jobs/" + sub.id + "/stream")
	if err != nil {
		sub.err = err
		return
	}
	var firstPhase, lastPhase int64
	sawStart := false // the stream opened before the job's first phase
	status, event := "", ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Status string `json:"status"`
			Phases int64  `json:"phases"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			sub.err = fmt.Errorf("%s: bad %s event %q: %w", sub.j.name, event, data, err)
			break
		}
		now := int64(0)
		if tc.tr != nil {
			now = tc.tr.now()
		}
		switch event {
		case "status":
			sawStart = ev.Phases == 0
		case "phase":
			if firstPhase == 0 {
				firstPhase = now
			}
			lastPhase = now
		case "done":
			sub.done, status = now, ev.Status
			if ev.Error != "" {
				sub.err = fmt.Errorf("%s: %s", sub.j.name, ev.Error)
			}
		}
	}
	resp.Body.Close()
	if sub.err == nil && status != server.StatusDone {
		sub.err = fmt.Errorf("%s: stream ended with status %q, want done", sub.j.name, status)
	}
	if sub.err != nil {
		return
	}
	if tc.tr != nil && sawStart && firstPhase != 0 {
		tc.tr.record(spanFirstPhase, sub.accepted, firstPhase, tc.parent, tc.round, -1)
		tc.tr.record(spanPhaseSpan, firstPhase, lastPhase, tc.parent, tc.round, -1)
		tc.tr.record(spanTail, lastPhase, sub.done, tc.parent, tc.round, -1)
	}
	var st server.JobStatus
	if err := w.getJSON("/v1/jobs/"+sub.id, &st); err != nil {
		sub.err = err
	} else if st.Result == nil {
		sub.err = fmt.Errorf("%s: job %s is done but carries no result", sub.j.name, sub.id)
	} else {
		sub.got = resultOutcome(st.Result)
	}
}

// book settles a job that ran on the server.
func (sub *submission) book(sample string, tc traceCtx, t *tally, rc *roundCount) bool {
	if !t.settleRun(sub.j, sub.got, sub.err, rc) {
		return false
	}
	if tc.tr != nil {
		t.add(sample, float64(sub.done-sub.accepted)/1e6)
	}
	return true
}

func (w *servedMix) round(tc traceCtx, t *tally) roundCount {
	var rc roundCount
	var before server.Metrics
	if tc.tr != nil {
		before, _ = w.metrics()
	}

	// Burst: four no_cache jobs queued without waiting, then followed on
	// clientConns streams in submission order (the server starts them in
	// that order, two at a time).
	subs := make([]*submission, len(w.js))
	for i, j := range w.js {
		subs[i] = w.submit(j, tc)
	}
	next := make(chan *submission, len(subs))
	for _, s := range subs {
		next <- s
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				w.await(s, tc)
			}
		}()
	}
	wg.Wait()
	for _, s := range subs {
		s.book("job."+s.j.name, tc, t, &rc)
	}

	// The same cg spec again, alone: same hash, so a fleet that ran it
	// last still holds its plans.
	cg := w.js[0]
	again := w.submit(cg, tc)
	w.await(again, tc)
	if again.book("job.cg-alone", tc, t, &rc) {
		pc := again.got.totals.PlanCache
		t.add("alone.plan_hits", float64(pc.Hits))
		t.add("alone.plan_lookups", float64(pc.Hits+pc.Misses))
	}

	// A cacheable duplicate: answered 200 from the result cache. It is a
	// job to its caller, but ran nothing, so its counters are not booked.
	id := tc.tr.begin(spanCached, tc.parent, tc.round, -1)
	sr, code, err := w.postJob(cg, false)
	tc.tr.end(id)
	var got outcome
	if err == nil {
		if code == http.StatusOK && sr.Result != nil && sr.Result.Cached {
			got = resultOutcome(sr.Result)
		} else {
			err = fmt.Errorf("cg: a cacheable duplicate was answered %d, want 200 with a cached result", code)
		}
	}
	if t.settle(cg, got, err, &rc) {
		rc.jobs++
	}

	// The stored result by hash: a read, not a job.
	id = tc.tr.begin(spanResultGet, tc.parent, tc.round, -1)
	var res jobspec.Result
	err = w.getJSON("/v1/results/"+cg.spec.Hash(), &res)
	tc.tr.end(id)
	t.settle(cg, resultOutcome(&res), err, &rc)

	if tc.tr != nil {
		if after, err := w.metrics(); err == nil {
			t.add("fleets_spawned", float64(after.Fleets.Spawned-before.Fleets.Spawned))
			t.add("fleets_reused", float64(after.Fleets.Reused-before.Fleets.Reused))
			t.add("cache_hits", float64(after.Cache.Hits-before.Cache.Hits))
			t.add("jobs_retried", float64(after.Jobs.Retried-before.Jobs.Retried))
		}
	}
	return rc
}

func (w *servedMix) metrics() (server.Metrics, error) {
	var m server.Metrics
	err := w.getJSON("/metrics", &m)
	return m, err
}

func (w *servedMix) probe(e *env, tr *tracer, t *tally, rounds float64, m metrics) error {
	for metric, span := range map[string]string{
		"submit_ms_p50": spanSubmit, "first_phase_ms_p50": spanFirstPhase,
		"phase_span_ms_p50": spanPhaseSpan, "tail_ms_p50": spanTail,
		"cached_ms_p50": spanCached, "result_get_ms_p50": spanResultGet,
	} {
		m.setMedian("server."+metric, tr.durations(span, time.Millisecond))
	}
	var all []float64
	for name, v := range t.samples {
		if j, ok := strings.CutPrefix(name, "job."); ok {
			all = append(all, v...)
			if j != "cg-alone" {
				m.setMedian("server.job_ms_p50."+j, v)
			}
		}
	}
	m.setP90("server.job_ms_p90", all)
	for _, c := range []string{"fleets_spawned", "fleets_reused", "cache_hits", "jobs_retried"} {
		m["server."+c] = sum(t.samples[c]) / rounds
	}
	m["server.refused"] = float64(w.refused) / rounds
	if lookups := sum(t.samples["alone.plan_lookups"]); lookups > 0 {
		m["server.warm_plan_hit_ratio"] = sum(t.samples["alone.plan_hits"]) / lookups
	}

	// The NodeResults the server decodes are the fleets' own; the same
	// specs on a co-hosted mesh give the same bytes to time.
	mesh, err := connectMesh(e.workDir, 2)
	if err != nil {
		return err
	}
	defer mesh.close()
	nodeResults := make(map[string][]dist.NodeResult)
	for _, j := range w.js {
		if j.spec.Backend != jobspec.BackendDist {
			continue
		}
		if _, nodeResults[j.name], err = mesh.run(j, traceCtx{}); err != nil {
			return err
		}
	}
	return probeJobspec(w.js, nodeResults, m)
}
