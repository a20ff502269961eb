package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppm/internal/jobspec"
)

// nopW swallows fleet stderr: the retry tests kill host processes on
// purpose and the victims complain loudly.
type nopW struct{}

func (nopW) Write(p []byte) (int, error) { return len(p), nil }

// distSpec builds a small dist-backend cg spec for the retry tests.
func distSpec(t *testing.T) jobspec.Spec {
	t.Helper()
	var s jobspec.Spec
	raw := `{"app":"cg","backend":"dist","nodes":2,"cores":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerJobRetryAfterFleetKill is the server half of the ISSUE's
// acceptance: a fault kills the first fleet mid-job, the server retries
// on a fresh fleet (the one-shot kill is disarmed by the attempt
// number), the job completes with attempts > 1, the result is
// bit-identical to the simulator, and the cache is populated exactly
// once — by the success, never by the failed attempt.
func TestServerJobRetryAfterFleetKill(t *testing.T) {
	t.Setenv("PPM_FAULT", "kill=1@phase:3")
	s := startServer(t, Config{Workers: 1, Stderr: nopW{}})
	base := "http://" + s.Addr()
	spec := distSpec(t)
	want := reference(t, spec)

	resp := submit(t, base, SubmitRequest{Tenant: "retry", Spec: spec})
	st := await(t, base, resp.ID)
	if st.Status != StatusDone {
		t.Fatalf("job status %s (err %q), want done", st.Status, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one kill, one retry)", st.Attempts)
	}
	sameSeries(t, "retried cg vs simulator", st.Result, want)

	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Jobs.Retried < 1 {
		t.Errorf("jobs_retried = %d, want >= 1", m.Jobs.Retried)
	}
	if m.Fleets.Discarded < 1 {
		t.Errorf("fleets_discarded = %d, want >= 1 (the killed fleet)", m.Fleets.Discarded)
	}
	if m.Recoveries.Rescaled != 0 {
		t.Errorf("recoveries_rescaled = %d, want 0 (first retry keeps the shape)", m.Recoveries.Rescaled)
	}
	if m.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want exactly 1 (success populates once)", m.Cache.Entries)
	}

	// The resubmission must come straight from the cache: no new fleet,
	// no new attempts.
	dup := submit(t, base, SubmitRequest{Tenant: "retry", Spec: spec})
	if dup.Status != StatusDone || dup.Result == nil {
		t.Fatalf("duplicate not served from cache: %+v", dup)
	}
	sameSeries(t, "cached cg vs simulator", dup.Result, want)
}

// TestServerJobRetryRescalesFleet drives the full degradation ladder: a
// killhost fault re-arms on every attempt (the host is permanently
// dead), so the same-shape retry dies too, and the second retry runs the
// 2-node job on ONE host process carrying both logical ranks — which the
// fault, keyed on host index 1, can no longer reach. Output stays
// bit-identical: the logical mesh never changed.
func TestServerJobRetryRescalesFleet(t *testing.T) {
	t.Setenv("PPM_FAULT", "killhost=1@phase:2")
	s := startServer(t, Config{Workers: 1, Stderr: nopW{}})
	base := "http://" + s.Addr()
	spec := distSpec(t)
	want := reference(t, spec)

	resp := submit(t, base, SubmitRequest{Tenant: "rescale", Spec: spec})
	st := await(t, base, resp.ID)
	if st.Status != StatusDone {
		t.Fatalf("job status %s (err %q), want done", st.Status, st.Error)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (kill, kill again, rescaled success)", st.Attempts)
	}
	sameSeries(t, "rescaled cg vs simulator", st.Result, want)

	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Jobs.Retried < 2 {
		t.Errorf("jobs_retried = %d, want >= 2", m.Jobs.Retried)
	}
	if m.Recoveries.Rescaled < 1 {
		t.Errorf("recoveries_rescaled = %d, want >= 1", m.Recoveries.Rescaled)
	}
	if m.Fleets.Discarded < 2 {
		t.Errorf("fleets_discarded = %d, want >= 2 (both killed fleets)", m.Fleets.Discarded)
	}
}

// TestServerJobRetrySkipsOperatorStop: a fleet host that exits
// dist.StopExitCode was stopped by an operator, so the job fails on its
// first attempt and the retry budget is not touched.
func TestServerJobRetrySkipsOperatorStop(t *testing.T) {
	fake := filepath.Join(t.TempDir(), "fake-node")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\nread job\nexit 86\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Workers: 1, NodeBin: fake, Stderr: nopW{}})
	base := "http://" + s.Addr()

	resp := submit(t, base, SubmitRequest{Tenant: "stop", Spec: distSpec(t)})
	st := await(t, base, resp.ID)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "stopped by operator") {
		t.Fatalf("job status %s (err %q), want failed by an operator stop", st.Status, st.Error)
	}
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (an operator stop is not retried)", st.Attempts)
	}
	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Jobs.Retried != 0 {
		t.Errorf("jobs_retried = %d, want 0", m.Jobs.Retried)
	}
}

// TestServerRetryBudgetExhausted pins the failure side: with retries
// disabled, the first fleet death fails the job, attempts stays 1, and
// the cache stays empty.
func TestServerRetryBudgetExhausted(t *testing.T) {
	t.Setenv("PPM_FAULT", "killhost=1@phase:2")
	s := startServer(t, Config{Workers: 1, MaxJobRetries: -1, Stderr: nopW{}})
	base := "http://" + s.Addr()
	spec := distSpec(t)

	resp := submit(t, base, SubmitRequest{Tenant: "nobudget", Spec: spec})
	st := await(t, base, resp.ID)
	if st.Status != StatusFailed {
		t.Fatalf("job status %s, want failed (no retry budget)", st.Status)
	}
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", st.Attempts)
	}
	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Cache.Entries != 0 {
		t.Errorf("cache entries = %d, want 0 (failure must not populate)", m.Cache.Entries)
	}
}

// TestSubmitQueueFullRetryAfter pins the queue-full 503's Retry-After to
// the backlog-proportional value (it was a hardcoded 5 once): the server
// is constructed but never started, so no worker drains the queue and
// the fill is deterministic.
func TestSubmitQueueFullRetryAfter(t *testing.T) {
	s := New(Config{MaxQueue: 4, TenantQuota: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"app":"jacobi","backend":"sim","nodes":2,"cores":2,"jacobi":{"NX":8,"NY":8,"NZ":8,"Sweeps":%d}}`
	for i := 0; i < 4; i++ {
		var sp jobspec.Spec
		if err := json.Unmarshal([]byte(fmt.Sprintf(spec, i+1)), &sp); err != nil {
			t.Fatal(err)
		}
		code, _ := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Tenant: "full", Spec: sp}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, code)
		}
	}
	var sp jobspec.Spec
	if err := json.Unmarshal([]byte(fmt.Sprintf(spec, 9)), &sp); err != nil {
		t.Fatal(err)
	}
	code, retryAfter := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Tenant: "full", Spec: sp}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-full submit: status %d, want 503", code)
	}
	// 4 queued jobs × 500ms = 2s — proportional to the backlog, not a
	// constant.
	if retryAfter != "2" {
		t.Fatalf("Retry-After = %q, want %q (backlog-proportional)", retryAfter, "2")
	}
}

// A submission whose parameters the application would refuse is answered
// 400 with the application's message and never reaches the queue or a
// fleet. (Admitted, it used to fail on the nodes, which retired a warm
// fleet and spent the whole retry budget booting fresh ones.)
func TestSubmitBadParamsRefused(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	var before, after Metrics
	getJSON(t, base+"/metrics", &before)
	for raw, want := range map[string]string{
		`{"app":"nbody","backend":"dist","nodes":2,"nbody":{"N":-5}}`:       "nbody: N must be positive, got -5",
		`{"app":"scatter","backend":"dist","nodes":2,"scatter":{"VPs":-1}}`: "scatter: N, VPs, and Iters must be positive, got 3000, -1, 4",
		`{"app":"cg","cg":{"MaxIter":-3}}`:                                  "cg: MaxIter must be positive, got -3",
		`{"app":"cg","cg":{"NX":4194304,"NY":4194304,"NZ":4194304}}`:        "cg: grid 4194304x4194304x4194304 exceeds 16777216 points",
		`{"app":"cg","cg":{"NX":2097152,"NY":2097152,"NZ":3}}`:              "cg: grid 2097152x2097152x3 exceeds 16777216 points",
	} {
		var sp jobspec.Spec
		if err := json.Unmarshal([]byte(raw), &sp); err != nil {
			t.Fatal(err)
		}
		var reply map[string]string
		code, _ := postJSON(t, base+"/v1/jobs", SubmitRequest{Tenant: "eve", NoCache: true, Spec: sp}, &reply)
		if code != http.StatusBadRequest || reply["error"] != want {
			t.Errorf("%s: status %d, error %q; want 400, %q", raw, code, reply["error"], want)
		}
	}
	getJSON(t, base+"/metrics", &after)
	if after.Fleets.Spawned != before.Fleets.Spawned || after.Jobs.Submitted != before.Jobs.Submitted ||
		after.Jobs.Failed != before.Jobs.Failed || after.Jobs.Retried != before.Jobs.Retried {
		t.Errorf("refused submissions moved the metrics:\nbefore %+v\n after %+v", before, after)
	}
}

// A submission too large to run or to read is answered 400 and registers
// no job: a cluster shape past jobspec's bounds (a sim job would allocate
// per-node state in the server, a dist job fork a process per node), and
// a body past the submission limit, which is not read to its end.
func TestSubmitOversizedRefused(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	for _, raw := range []string{
		`{"spec":{"app":"scatter","nodes":268435456}}`,
		`{"spec":{"app":"scatter","cores":1073741824}}`,
		`{"spec":{"app":"scatter","backend":"dist","nodes":100000}}`,
		// Sizes whose allocation would panic the worker that runs the job.
		`{"spec":{"app":"search","search":{"N":4611686018427387904}}}`,
		`{"spec":{"app":"search","search":{"K":4611686018427387904}}}`,
		`{"spec":{"app":"scatter","scatter":{"N":100000000,"VPs":100000000}}}`,
		`{"spec":{"app":"nbody","nbody":{"N":4611686018427387904}}}`,
		`{"spec":{"app":"colloc","colloc":{"Levels":24,"M0":1000000}}}`,
		`{"tenant":"` + strings.Repeat("x", maxSubmitBytes) + `","spec":{"app":"scatter"}}`,
	} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]string
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || reply["error"] == "" {
			t.Errorf("%.60s: status %d, reply %v (%v); want 400 with an error", raw, resp.StatusCode, reply, err)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Errorf("refused submissions registered %d jobs", jobs)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("the server stopped answering: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics after the refusals: status %d", resp.StatusCode)
	}
}
