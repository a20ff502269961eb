package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// Every ppm-node launch is one session: the one job a command line
// describes and a job a serve fleet reads from stdin take the same path
// through the node, and come back as the same NodeReply lines through the
// same dist.LaunchOpts.StartHost.

func scatterSpec(t *testing.T) jobspec.Spec {
	t.Helper()
	var s jobspec.Spec
	raw := `{"app":"scatter","backend":"dist","nodes":2,"cores":2,"scatter":{"N":600,"VPs":4,"Iters":3,"Seed":5}}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// A one-shot launch (-spec-json, what ppm-run forks) and a pooled serve
// fleet run the same spec to Float64bits-equal outputs and equal
// per-rank program counters.
func TestOneJobSessionMatchesServe(t *testing.T) {
	spec := scatterSpec(t)
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	launched, err := dist.LaunchLocal(dist.LaunchOpts{
		Nodes: 2, NodeBin: nodeBin, Stderr: nopW{},
		NodeArgs: []string{"-spec-json", string(payload)},
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := newPool(nodeBin, nopW{}).spawn(fleetKey{nodes: 2, procs: 2, cores: 2, preset: spec.Preset}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	served, err := f.run("j", &spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	flat := func(results []dist.NodeResult) *jobspec.Result {
		t.Helper()
		m, err := dist.Merge(spec.AppSpec(), results)
		if err != nil {
			t.Fatal(err)
		}
		res, err := jobspec.FromMerged(&spec, m)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameSeries(t, "one-shot vs served scatter", flat(launched), flat(served))
	for r := range launched {
		if g, w := launched[r].Stats.Program(), served[r].Stats.Program(); g != w {
			t.Errorf("rank %d counters diverge:\none-shot %+v\n  served %+v", r, g, w)
		}
	}
}

// Checkpoint files are keyed by rank and phase, not by job, so a serve
// host refuses -checkpoint-dir with a terminal reply before it connects:
// it publishes no rendezvous address and does not wait out the connect
// timeout for a peer that never comes.
func TestServeRefusesCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	lo := dist.LaunchOpts{
		Nodes: 2, NodeBin: nodeBin, Stderr: nopW{},
		NodeArgs:      []string{"-serve", "-connect-timeout", "60s"},
		CheckpointDir: t.TempDir(),
	}
	h, err := lo.StartHost(dir, "ckpt", 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var replies []dist.NodeReply
	for rep := range h.Replies {
		replies = append(replies, rep)
	}
	if err := h.Wait(); err == nil {
		t.Error("serve host with -checkpoint-dir exited 0")
	}
	if len(replies) != 1 || !replies[0].Done || replies[0].Result == nil ||
		!strings.Contains(replies[0].Result.Err, "-checkpoint-dir") {
		t.Fatalf("replies = %+v, want one terminal reply refusing -checkpoint-dir", replies)
	}
	if _, err := os.Stat(filepath.Join(dir, "node-0.addr")); err == nil {
		t.Error("the refused host published a rendezvous address: it started connecting")
	}
}

// A serve host packing three ranks closes their engines together, so
// at stdin EOF it exits 0 at once. (Closed in turn, each engine sat out
// the 10 s drain timeout waiting for a co-hosted rank's Bye, and the pool
// killed every rescaled fleet at the end of its 5 s grace.)
func TestPackedServeHostDrainsAtEOF(t *testing.T) {
	var spec jobspec.Spec
	if err := json.Unmarshal([]byte(`{"app":"cg","backend":"dist","nodes":3,"cores":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":4}}`), &spec); err != nil {
		t.Fatal(err)
	}
	spec.Normalize()
	f, err := newPool(nodeBin, nopW{}).spawn(fleetKey{nodes: 3, procs: 1, cores: 2, preset: spec.Preset}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	results, err := f.run("j", &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("rank %d: %s", res.Rank, res.Err)
		}
	}
	h := f.hosts[0]
	start := time.Now()
	h.Stdin.Close()
	err = h.Wait()
	if took := time.Since(start); took > time.Second {
		t.Errorf("3-rank host took %v to drain after stdin EOF, want under 1s", took)
	}
	if err != nil {
		t.Errorf("3-rank host exit at stdin EOF: %v, want 0", err)
	}
}

// A host that exits right after its terminal reply (a serve node after
// a failed run) must not lose the reply: its stdout is read to EOF before
// the exit is waited for. A 200 KB reply spans many pipe reads, which is
// where waiting first, which closes the pipe, used to cut it off and
// turn the rank's error into "exited mid-job".
func TestPoolKeepsDyingHostsLastReply(t *testing.T) {
	dir := t.TempDir()
	want := strings.Repeat("rank 0 failed; ", 200<<10/15)
	line, err := json.Marshal(dist.NodeReply{ID: "j", Done: true, Result: &dist.NodeResult{Rank: 0, Err: want}})
	if err != nil {
		t.Fatal(err)
	}
	reply := filepath.Join(dir, "reply.json")
	if err := os.WriteFile(reply, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fake := filepath.Join(dir, "fake-node")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\nread job\ncat "+reply+"\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := newPool(fake, nopW{})
	spec := distSpec(t)
	// Four at a time: the lost reply needs a busy host to show.
	const workers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f, err := p.spawn(fleetKey{nodes: 1, procs: 1}, w*each+i, 0)
				if err != nil {
					t.Error(err)
					return
				}
				results, err := f.run("j", &spec, nil)
				p.discard(f)
				if err != nil {
					t.Errorf("trial %d: %v, want the rank's own error", w*each+i, err)
					return
				}
				if results[0].Err != want {
					t.Errorf("trial %d: rank 0 error of %d bytes, want the %d-byte reply", w*each+i, len(results[0].Err), len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
