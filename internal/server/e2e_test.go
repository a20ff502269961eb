package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/jobspec"
)

// nodeBin is the serve-mode ppm-node binary TestMain builds once for
// the package; dist-backend jobs fork it.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ppm-node-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "ppm-node")
	if out, err := exec.Command("go", "build", "-o", bin, "ppm/cmd/ppm-node").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ppm-node: %v\n%s", err, out)
	} else {
		nodeBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// startServer boots an in-process server and arranges its drain.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	if cfg.NodeBin == "" {
		cfg.NodeBin = nodeBin
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func postJSON(t *testing.T, url string, body any, out any) (code int, retryAfter string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response (status %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s (status %d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode
}

// submit pushes one job, retrying quota rejections (which must carry
// Retry-After) until admitted — the "rejected or queued, never
// dropped" contract from the client's side.
func submit(t *testing.T, base string, req SubmitRequest) SubmitResponse {
	t.Helper()
	for attempt := 0; ; attempt++ {
		var out SubmitResponse
		code, retryAfter := postJSON(t, base+"/v1/jobs", req, &out)
		switch code {
		case http.StatusOK, http.StatusAccepted:
			return out
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if retryAfter == "" {
				t.Fatalf("status %d without Retry-After", code)
			}
			if attempt > 400 {
				t.Fatalf("job never admitted after %d attempts", attempt)
			}
			time.Sleep(25 * time.Millisecond)
		default:
			t.Fatalf("submit returned %d", code)
		}
	}
}

// await polls a job to its terminal state.
func await(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		switch st.Status {
		case StatusDone, StatusFailed, StatusExpired:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// sameSeries asserts bit-identity of the flattened outputs.
func sameSeries(t *testing.T, label string, got, want *jobspec.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing result (got %v, want %v)", label, got, want)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: series length %d, want %d", label, len(got.Series), len(want.Series))
	}
	for i := range got.Series {
		if math.Float64bits(got.Series[i]) != math.Float64bits(want.Series[i]) {
			t.Fatalf("%s: series[%d] = %v, want %v", label, i, got.Series[i], want.Series[i])
		}
	}
	if len(got.ISeries) != len(want.ISeries) {
		t.Fatalf("%s: iseries length %d, want %d", label, len(got.ISeries), len(want.ISeries))
	}
	for i := range got.ISeries {
		if got.ISeries[i] != want.ISeries[i] {
			t.Fatalf("%s: iseries[%d] = %d, want %d", label, i, got.ISeries[i], want.ISeries[i])
		}
	}
}

// e2eSpecs are the four distinct jobs the end-to-end test submits twice
// (once per tenant): two dist-backend (exercising the fleet pool), two
// local. Parameters are small so the whole test stays in seconds.
func e2eSpecs(t *testing.T) []jobspec.Spec {
	t.Helper()
	raw := []string{
		`{"app":"cg","backend":"dist","nodes":2,"cores":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		`{"app":"scatter","backend":"dist","nodes":2,"cores":2,"scatter":{"N":400,"VPs":4,"Iters":3,"Seed":7}}`,
		`{"app":"jacobi","backend":"sim","nodes":2,"cores":2,"jacobi":{"NX":8,"NY":8,"NZ":8,"Sweeps":4}}`,
		`{"app":"search","backend":"sim","nodes":2,"cores":2,"search":{"N":4096,"K":256,"Seed":42}}`,
	}
	specs := make([]jobspec.Spec, len(raw))
	for i, r := range raw {
		if err := json.Unmarshal([]byte(r), &specs[i]); err != nil {
			t.Fatal(err)
		}
		specs[i].Normalize()
		if err := specs[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// reference runs a spec's computation locally through the simulator —
// the ground truth every serving path must match bit-for-bit.
func reference(t *testing.T, s jobspec.Spec) *jobspec.Result {
	t.Helper()
	local := s
	local.Backend = jobspec.BackendSim
	res, err := jobspec.RunLocal(&local)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerEndToEnd is the acceptance scenario: 8 concurrent jobs
// across 2 tenants against a tight quota (excess submissions are
// rejected with Retry-After and later admitted — never dropped), every
// result bit-identical to a direct local run, an identical resubmission
// served from the content-addressed cache, and a forced rerun on the
// reused warm fleet showing plan-cache hits.
func TestServerEndToEnd(t *testing.T) {
	s := startServer(t, Config{TenantQuota: 3, MaxQueue: 32, Workers: 2})
	base := "http://" + s.Addr()
	specs := e2eSpecs(t)

	// 8 concurrent submissions: each tenant submits all four specs.
	// Quota 3 < 4 jobs per tenant guarantees some rejections while both
	// workers are busy; submit retries them through to admission.
	type sub struct {
		tenant string
		spec   int
		resp   SubmitResponse
	}
	subs := make([]sub, 0, 8)
	for _, tenant := range []string{"alice", "bob"} {
		for i := range specs {
			subs = append(subs, sub{tenant: tenant, spec: i})
		}
	}
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i].resp = submit(t, base, SubmitRequest{
				Tenant: subs[i].tenant, Priority: i % 3, Spec: specs[subs[i].spec],
			})
		}(i)
	}
	wg.Wait()

	// Every admitted job reaches done with the reference Series.
	for _, sb := range subs {
		st := await(t, base, sb.resp.ID)
		if st.Status != StatusDone {
			t.Fatalf("job %s (%s/%s): status %s, err %q",
				sb.resp.ID, sb.tenant, specs[sb.spec].App, st.Status, st.Error)
		}
		sameSeries(t, fmt.Sprintf("%s/%s", sb.tenant, specs[sb.spec].App), st.Result, reference(t, specs[sb.spec]))
	}

	// The duplicate submissions above (alice and bob submitted the same
	// four specs) mean at least four cache servings happened already;
	// verify an explicit resubmission is a cache hit too.
	again := submit(t, base, SubmitRequest{Tenant: "alice", Spec: specs[0]})
	if again.Status != StatusDone || again.Result == nil || !again.Result.Cached {
		t.Fatalf("resubmission not served from cache: %+v", again)
	}
	sameSeries(t, "cached cg", again.Result, reference(t, specs[0]))

	// The result is addressable by hash directly.
	var byHash jobspec.Result
	if code := getJSON(t, base+"/v1/results/"+again.Hash, &byHash); code != http.StatusOK {
		t.Fatalf("GET /v1/results/%s: %d", again.Hash, code)
	}
	sameSeries(t, "by-hash cg", &byHash, reference(t, specs[0]))

	// no_cache forces a fresh run of an identical dist spec. It lands on
	// the warm fleet parked by the earlier cg jobs, whose plan-cache
	// session was stashed under this very spec hash — so the rerun must
	// replay recorded phase plans (PlanCache.Hits > 0) and still be
	// bit-identical.
	rerun := submit(t, base, SubmitRequest{Tenant: "bob", NoCache: true, Spec: specs[0]})
	st := await(t, base, rerun.ID)
	if st.Status != StatusDone {
		t.Fatalf("no_cache rerun: status %s, err %q", st.Status, st.Error)
	}
	if st.Result.Cached {
		t.Fatal("no_cache rerun was served from the cache")
	}
	if hits := st.Result.Totals.PlanCache.Hits; hits <= 0 {
		t.Fatalf("warm-fleet rerun reports PlanCache.Hits = %d, want > 0", hits)
	}
	sameSeries(t, "warm rerun cg", st.Result, reference(t, specs[0]))

	// The pool must have reused a fleet for the rerun (and the metrics
	// must say so).
	var m Metrics
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if m.Fleets.Reused < 1 {
		t.Fatalf("fleet reuse count = %d, want >= 1", m.Fleets.Reused)
	}
	// At minimum the explicit resubmission and the by-hash fetch hit;
	// duplicate pairs that did not run concurrently add more.
	if m.Cache.Hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", m.Cache.Hits)
	}
	if m.Jobs.Failed != 0 || m.Jobs.Expired != 0 {
		t.Fatalf("unexpected failures in metrics: %+v", m.Jobs)
	}
}

// TestServerStream covers the phase-progress stream: a dist job's
// stream must deliver phase events and a terminal done event.
func TestServerStream(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	specs := e2eSpecs(t)

	resp := submit(t, base, SubmitRequest{Tenant: "carol", NoCache: true, Spec: specs[0]})
	hr, err := http.Get(base + "/v1/jobs/" + resp.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	buf := make([]byte, 1<<16)
	var all []byte
	for {
		n, err := hr.Body.Read(buf)
		all = append(all, buf[:n]...)
		if err != nil {
			break
		}
		if bytes.Contains(all, []byte("event: done")) {
			break
		}
	}
	if !bytes.Contains(all, []byte("event: done")) {
		t.Fatalf("stream ended without a done event:\n%s", all)
	}
	st := await(t, base, resp.ID)
	if st.Status != StatusDone {
		t.Fatalf("streamed job: status %s, err %q", st.Status, st.Error)
	}
	if st.Phases <= 0 {
		t.Fatalf("job reported %d phases, want > 0", st.Phases)
	}
}

// TestServerDeadlineExpiresQueuedJob occupies the single worker with a
// deliberately heavy cold dist job — hundreds of ms, far beyond both
// the victim's deadline and an HTTP submit round-trip — and queues a
// 1ms-deadline job behind it: the deadline passes while queued, and
// the job must come back expired — not run, not dropped.
func TestServerDeadlineExpiresQueuedJob(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	specs := e2eSpecs(t)

	var heavy jobspec.Spec
	raw := `{"app":"scatter","backend":"dist","nodes":2,"cores":2,"scatter":{"N":8000,"VPs":8,"Iters":150,"Seed":7}}`
	if err := json.Unmarshal([]byte(raw), &heavy); err != nil {
		t.Fatal(err)
	}
	blocker := submit(t, base, SubmitRequest{Tenant: "dave", NoCache: true, Spec: heavy})
	doomed := specs[2]
	doomed.DeadlineMS = 1
	victim := submit(t, base, SubmitRequest{Tenant: "dave", NoCache: true, Spec: doomed})

	st := await(t, base, victim.ID)
	if st.Status != StatusExpired {
		t.Fatalf("deadline job: status %s (err %q), want expired", st.Status, st.Error)
	}
	if bs := await(t, base, blocker.ID); bs.Status != StatusDone {
		t.Fatalf("blocker: status %s, err %q", bs.Status, bs.Error)
	}
}

// nonFiniteSpec is examples/jobs/nbody-nonfinite.json on the given
// backend: a spec Validate accepts whose outputs are mostly NaN and ±Inf.
func nonFiniteSpec(t *testing.T, backend string) jobspec.Spec {
	t.Helper()
	raw, err := os.ReadFile("../../examples/jobs/nbody-nonfinite.json")
	if err != nil {
		t.Fatal(err)
	}
	var s jobspec.Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	s.Backend = backend
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerNonFinite serves a job whose result is mostly NaN and ±Inf
// on both backends: each ends done, its status and its cached result
// carry the simulator's bits.
func TestServerNonFinite(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()
	for _, backend := range []string{jobspec.BackendSim, jobspec.BackendDist} {
		spec := nonFiniteSpec(t, backend)
		want := reference(t, spec)
		resp := submit(t, base, SubmitRequest{Tenant: "erin", Spec: spec})
		st := await(t, base, resp.ID)
		if st.Status != StatusDone {
			t.Fatalf("%s: status %s, err %q", backend, st.Status, st.Error)
		}
		sameSeries(t, backend, st.Result, want)
		var byHash jobspec.Result
		if code := getJSON(t, base+"/v1/results/"+resp.Hash, &byHash); code != http.StatusOK {
			t.Fatalf("%s: GET /v1/results/%s: %d", backend, resp.Hash, code)
		}
		sameSeries(t, backend+" by hash", &byHash, want)
	}
}

// A response that does not encode is answered 500 with the encoding
// error, not with the intended status and a truncated body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "does not encode") {
		t.Fatalf("answered %d %q, want 500 naming the encoding error", rec.Code, rec.Body.Bytes())
	}
}
