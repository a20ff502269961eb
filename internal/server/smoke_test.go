package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ppm/internal/jobspec"
)

// TestServerSmoke is the full-binary serving smoke: it builds
// ppm-server, ppm-node, and ppm-run, boots a real server process,
// submits cg + jacobi + scatter concurrently, resubmits cg as a cache
// hit, diffs every Series bit-for-bit against direct `ppm-run -spec
// -json`, serves examples/jobs/nbody-nonfinite.json (mostly NaN and ±Inf)
// on both backends with the bits of its direct simulator run, snapshots
// /metrics (PPM_SERVER_METRICS_OUT), and SIGTERMs
// the server expecting a clean drain (exit 0). Gated behind
// PPM_SERVER_SMOKE=1 (`make server-smoke`) so the default suite stays
// fast.
func TestServerSmoke(t *testing.T) {
	if os.Getenv("PPM_SERVER_SMOKE") == "" {
		t.Skip("set PPM_SERVER_SMOKE=1 to run the serving smoke (make server-smoke)")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ppm-server", "ppm-node", "ppm-run"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "ppm/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	srv := exec.Command(bins["ppm-server"],
		"-addr", "127.0.0.1:0", "-node-bin", bins["ppm-node"], "-workers", "2")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ppm-server: listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatal("server never reported its listen address")
	}

	specs := map[string]string{
		"cg":      `{"app":"cg","backend":"dist","nodes":2,"cores":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		"jacobi":  `{"app":"jacobi","backend":"sim","nodes":2,"cores":2,"jacobi":{"NX":8,"NY":8,"NZ":8,"Sweeps":4}}`,
		"scatter": `{"app":"scatter","backend":"dist","nodes":2,"cores":2,"scatter":{"N":400,"VPs":4,"Iters":3,"Seed":7}}`,
	}
	parsed := map[string]jobspec.Spec{}
	for name, raw := range specs {
		var s jobspec.Spec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			t.Fatal(err)
		}
		parsed[name] = s
	}

	// Concurrent submissions, then await each to done.
	results := map[string]*jobspec.Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, s := range parsed {
		wg.Add(1)
		go func(name string, s jobspec.Spec) {
			defer wg.Done()
			resp := submit(t, base, SubmitRequest{Tenant: "smoke", Spec: s})
			st := await(t, base, resp.ID)
			if st.Status != StatusDone {
				t.Errorf("%s: status %s, err %q", name, st.Status, st.Error)
				return
			}
			mu.Lock()
			results[name] = st.Result
			mu.Unlock()
		}(name, s)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("submissions failed")
	}

	// The duplicate must come straight from the content-addressed cache.
	dup := submit(t, base, SubmitRequest{Tenant: "smoke", Spec: parsed["cg"]})
	if dup.Status != StatusDone || dup.Result == nil || !dup.Result.Cached {
		t.Fatalf("duplicate cg not served from cache: %+v", dup)
	}
	sameSeries(t, "cached cg vs first cg", dup.Result, results["cg"])

	// Every served Series must be bit-identical to a direct ppm-run of
	// the same spec file.
	for name, raw := range specs {
		specFile := filepath.Join(dir, name+".json")
		if err := os.WriteFile(specFile, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bins["ppm-run"],
			"-spec", specFile, "-json", "-node-bin", bins["ppm-node"]).Output()
		if err != nil {
			t.Fatalf("ppm-run -spec %s: %v", name, err)
		}
		var direct jobspec.Result
		if err := json.Unmarshal(out, &direct); err != nil {
			t.Fatalf("decoding ppm-run output for %s: %v", name, err)
		}
		sameSeries(t, name+" server vs ppm-run", results[name], &direct)
		if results[name].Hash != direct.Hash {
			t.Errorf("%s: hash mismatch: server %s, direct %s", name, results[name].Hash, direct.Hash)
		}
	}

	// A result that is mostly NaN and ±Inf is served on both backends
	// with the bits of a direct simulator run of the same spec file.
	nonFinite := "../../examples/jobs/nbody-nonfinite.json"
	out, err := exec.Command(bins["ppm-run"], "-spec", nonFinite, "-json").Output()
	if err != nil {
		t.Fatalf("ppm-run -spec %s: %v", nonFinite, err)
	}
	var simulated jobspec.Result
	if err := json.Unmarshal(out, &simulated); err != nil {
		t.Fatalf("decoding ppm-run output for %s: %v", nonFinite, err)
	}
	for _, backend := range []string{jobspec.BackendSim, jobspec.BackendDist} {
		s := nonFiniteSpec(t, backend)
		st := await(t, base, submit(t, base, SubmitRequest{Tenant: "smoke", Spec: s}).ID)
		if st.Status != StatusDone {
			t.Fatalf("non-finite nbody on %s: status %s, err %q", backend, st.Status, st.Error)
		}
		sameSeries(t, "non-finite nbody on "+backend+" vs ppm-run", st.Result, &simulated)
	}

	// Snapshot the metrics (CI uploads the file as an artifact).
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawMetrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(rawMetrics, &m); err != nil {
		t.Fatal(err)
	}
	// The recovery counters must be present in the raw JSON (the
	// artifact CI uploads) even when zero — dashboards key on the names.
	for _, key := range []string{`"jobs_retried"`, `"recoveries_rescaled"`, `"fleets_discarded"`} {
		if !strings.Contains(string(rawMetrics), key) {
			t.Errorf("metrics JSON is missing %s:\n%s", key, rawMetrics)
		}
	}
	if m.Cache.Hits < 1 {
		t.Errorf("metrics: cache hits = %d, want >= 1", m.Cache.Hits)
	}
	if m.Fleets.Spawned < 1 {
		t.Errorf("metrics: fleets spawned = %d, want >= 1", m.Fleets.Spawned)
	}
	if out := os.Getenv("PPM_SERVER_METRICS_OUT"); out != "" {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, rawMetrics, "", "  "); err != nil {
			t.Fatal(err)
		}
		pretty.WriteByte('\n')
		if err := os.WriteFile(out, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("metrics snapshot written to %s", out)
	}
	t.Logf("metrics: %+v", m)

	// Operator stop: SIGTERM must drain and exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exit after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain within 60s of SIGTERM")
	}
}
