package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/scatter"
	"ppm/internal/core"
	"ppm/internal/faultinject"
	"ppm/internal/wire"
)

// runMeshCfg is runMesh with per-rank Config customization and errors
// returned instead of failed: the fault tests *expect* ranks to die, and
// want to inspect exactly how.
func runMeshCfg(t *testing.T, nodes int, cfg func(rank int, c *Config), body func(rank int, eng *Engine) error) []error {
	t.Helper()
	dir := t.TempDir()
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := Config{Rank: rank, Nodes: nodes, RendezvousDir: dir}
			if cfg != nil {
				cfg(rank, &c)
			}
			eng, err := Connect(c)
			if err != nil {
				errs[rank] = err
				return
			}
			defer eng.Close()
			errs[rank] = body(rank, eng)
		}(r)
	}
	wg.Wait()
	return errs
}

// recoverAbort runs fn and converts the runtime's AbortError panic into
// the error the fault tests assert on.
func recoverAbort(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(core.AbortError); ok {
				err = ae.Err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

func mustPlan(t *testing.T, spec string, rank int) *faultinject.Plan {
	t.Helper()
	pl, err := faultinject.ParseHost(spec, rank, rank, 0)
	if err != nil {
		t.Fatalf("ParseHost(%q): %v", spec, err)
	}
	return pl
}

// TestHeartbeatDetectsSilentPeer injects a silent bidirectional partition
// (links stay open, frames vanish) and checks both ranks detect it within
// the heartbeat timeout — the failure TCP itself never reports — with an
// error naming the unresponsive rank.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	start := time.Now()
	var detected sync.WaitGroup
	detected.Add(2)
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.HeartbeatInterval = 50 * time.Millisecond
			c.HeartbeatTimeout = 400 * time.Millisecond
			c.OpTimeout = 30 * time.Second // only the detector may fire
			c.DrainTimeout = 100 * time.Millisecond
			c.Faults = mustPlan(t, "partition=0|1", rank)
		},
		func(rank int, eng *Engine) error {
			// Block on a message the partition guarantees never arrives.
			err := recoverAbort(func() { eng.Recv(1-rank, 7) })
			// The partition swallows frames, not a FIN: keep this engine
			// open until the other rank's own detector has fired too.
			detected.Done()
			detected.Wait()
			return err
		})
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("detection took %v — watchdog territory, detector did not fire", elapsed)
	}
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: no error despite full partition", rank)
		}
		if !strings.Contains(err.Error(), "unresponsive") {
			t.Errorf("rank %d error %q does not say the peer was unresponsive", rank, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("rank %d", 1-rank)) {
			t.Errorf("rank %d error %q does not name rank %d", rank, err, 1-rank)
		}
		if !strings.Contains(err.Error(), "recv") {
			t.Errorf("rank %d error %q does not name the blocked operation", rank, err)
		}
	}
}

// TestFetchTimeout wedges the remote read server (rank 1 never installs
// one) and checks the per-operation deadline fires with an error naming
// the read and the owner — while heartbeats keep flowing, so only the op
// timeout can be the one that triggers.
func TestFetchTimeout(t *testing.T) {
	release := make(chan struct{})
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.HeartbeatInterval = 50 * time.Millisecond
			c.HeartbeatTimeout = 30 * time.Second
			c.OpTimeout = 300 * time.Millisecond
			c.DrainTimeout = 100 * time.Millisecond
		},
		func(rank int, eng *Engine) error {
			if rank == 1 {
				// Never call SetReadServer: requests queue forever.
				<-release
				return nil
			}
			defer close(release)
			_, err := eng.Fetch(3, 1, 0, 8)
			return err
		})
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	err := errs[0]
	if err == nil {
		t.Fatal("rank 0: Fetch returned without error despite a wedged owner")
	}
	for _, want := range []string{"timed out", "array 3", "rank 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fetch timeout error %q lacks %q", err, want)
		}
	}
}

// TestCommitWaitTimeout holds back one rank's commit stream and checks
// the waiting rank's deadline names the phase and the missing rank.
func TestCommitWaitTimeout(t *testing.T) {
	release := make(chan struct{})
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.HeartbeatInterval = 50 * time.Millisecond
			c.HeartbeatTimeout = 30 * time.Second
			c.OpTimeout = 300 * time.Millisecond
			c.DrainTimeout = 100 * time.Millisecond
		},
		func(rank int, eng *Engine) error {
			if rank == 1 {
				<-release // never commits phase 1
				return nil
			}
			defer close(release)
			_, err := eng.CommitExchange(1, make([][]byte, 2))
			return err
		})
	if errs[1] != nil {
		t.Fatalf("rank 1: %v", errs[1])
	}
	err := errs[0]
	if err == nil {
		t.Fatal("rank 0: commit wait returned without error")
	}
	for _, want := range []string{"commit of phase 1", "timed out", "[1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("commit timeout error %q lacks %q", err, want)
		}
	}
}

// TestSeverFaultAborts hard-closes every connection incident to rank 0 at
// phase 1's commit and checks both sides fail fast with a transport-level
// error rather than hanging.
func TestSeverFaultAborts(t *testing.T) {
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.HeartbeatInterval = 50 * time.Millisecond
			c.HeartbeatTimeout = 2 * time.Second
			c.OpTimeout = 5 * time.Second
			c.DrainTimeout = 100 * time.Millisecond
			c.Faults = mustPlan(t, "sever=0@phase:1", rank)
		},
		func(rank int, eng *Engine) error {
			_, err := eng.CommitExchange(1, make([][]byte, 2))
			return err
		})
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no rank failed despite a severed mesh")
	}
}

// TestRendezvousIgnoresStaleFiles seeds the rendezvous directory with
// leftovers from a "previous launch" — stale-run-id files pointing at a
// dead address — and checks a fresh fleet connects anyway instead of
// dialing ghosts.
func TestRendezvousIgnoresStaleFiles(t *testing.T) {
	dir := t.TempDir()
	deadAddr := "127.0.0.1:1" // reserved port: dialing it would fail fast and retry until timeout
	for r := 0; r < 2; r++ {
		stale := fmt.Sprintf("ppm-stale-run\n%s", deadAddr)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("node-%d.addr", r)), []byte(stale), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := Connect(Config{
				Rank: rank, Nodes: 2, RendezvousDir: dir,
				RunID:          "ppm-fresh-run",
				ConnectTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer eng.Close()
			// Prove the mesh is real: one round-trip.
			if rank == 0 {
				eng.Send(1, 5, []float64{1}, 8)
			} else {
				m := eng.Recv(0, 5)
				if m.Src != 0 {
					errs[rank] = fmt.Errorf("message from %d", m.Src)
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestFrameFaultsPreserveResults runs real apps under heavy duplicate +
// delay injection. Dup and delay are *benign* faults for a correct
// protocol — reads are request/response, and every commit frame says
// where in which stream it belongs, so a repeat is recognized whether it
// lands before or after its exchange completes — so the run must still
// complete bit-identically: jacobi with its empty commit streams, and
// scatter, whose duplicated CommitData frames used to be appended twice,
// under both codecs.
func TestFrameFaultsPreserveResults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  AppSpec
		codec wire.Codec
	}{
		{"jacobi", AppSpec{App: "jacobi", Jacobi: jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}}, wire.CodecRaw},
		{"scatter", AppSpec{App: "scatter", Scatter: scatter.Params{N: 3000, VPs: 6, Iters: 6, Seed: 7}}, wire.CodecRaw},
		{"scatter-delta", AppSpec{App: "scatter", Scatter: scatter.Params{N: 3000, VPs: 6, Iters: 6, Seed: 7}}, wire.CodecDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := distOpt(2)
			want, wstats := simReference(t, 2, tc.spec)
			results := make([]NodeResult, 2)
			errs := runMeshCfg(t, 2,
				func(rank int, c *Config) {
					c.Codec = tc.codec
					c.Faults = mustPlan(t, "seed=11; dup=0.2; delay=0.05:2ms", rank)
				},
				func(rank int, eng *Engine) error {
					results[rank] = *RunApp(eng, opt, tc.spec)
					if results[rank].Err != "" {
						return fmt.Errorf("%s", results[rank].Err)
					}
					return nil
				})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			m, merr := Merge(tc.spec, results)
			if merr != nil {
				t.Fatal(merr)
			}
			sameAppOutput(t, tc.spec, m, want)
			samePerNode(t, m.PerNode, wstats)
		})
	}
}

// TestLostCommitFramesFailAttributed drops and cuts frames of a run whose
// commit streams are not empty. Without positions on the frames a lost
// middle chunk surfaced only if the run grammar happened to break; now
// the receiver names the sender, and the run ends long before any
// deadline.
func TestLostCommitFramesFailAttributed(t *testing.T) {
	spec := AppSpec{App: "scatter", Scatter: scatter.Params{N: 3000, VPs: 6, Iters: 6, Seed: 7}}
	for _, fault := range []string{"seed=7; drop=0.4@phase:2", "seed=9; trunc=0.5@phase:2"} {
		t.Run(fault, func(t *testing.T) {
			start := time.Now()
			errs := runMeshCfg(t, 2,
				func(rank int, c *Config) {
					c.HeartbeatInterval = 50 * time.Millisecond
					c.HeartbeatTimeout = 2 * time.Second
					c.OpTimeout = 5 * time.Second
					c.DrainTimeout = 100 * time.Millisecond
					c.Faults = mustPlan(t, fault, rank)
				},
				func(rank int, eng *Engine) error {
					if res := RunApp(eng, distOpt(2), spec); res.Err != "" {
						return fmt.Errorf("%s", res.Err)
					}
					return nil
				})
			for rank, err := range errs {
				if err == nil {
					t.Fatalf("rank %d finished a run that lost frames", rank)
				}
				t.Logf("rank %d: %v", rank, err)
				if !strings.Contains(err.Error(), "rank") {
					t.Errorf("rank %d: error names no rank: %v", rank, err)
				}
			}
			if d := time.Since(start); d > 30*time.Second {
				t.Errorf("the run took %v to fail", d)
			}
		})
	}
}

// TestTruncationFaultFailsCleanly corrupts frames on the wire (re-framed
// truncation) and checks the fleet aborts with a decode error instead of
// hanging or panicking. drop=1 of everything would also do, but
// truncation additionally exercises the payload parsers on short input.
func TestTruncationFaultFailsCleanly(t *testing.T) {
	opt := distOpt(2)
	prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.HeartbeatInterval = 50 * time.Millisecond
			c.HeartbeatTimeout = 2 * time.Second
			c.OpTimeout = 5 * time.Second
			c.DrainTimeout = 100 * time.Millisecond
			if rank == 0 {
				c.Faults = mustPlan(t, "trunc=1", 0)
			}
		},
		func(rank int, eng *Engine) error {
			res := RunApp(eng, opt, AppSpec{App: "jacobi", Jacobi: prm})
			if res.Err != "" {
				return fmt.Errorf("%s", res.Err)
			}
			return nil
		})
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("universal frame truncation went unnoticed")
	}
}
