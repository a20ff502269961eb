package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/machine"
)

// The boundary latch replaces one channel message per VP per boundary by
// one atomic decrement, with a single token for the coordinator. These
// tests drive it where a miscount would show: thousands of VPs, a warm
// doRun whose workers re-arm the latch fifty times, and every path on
// which a VP leaves the population (exit, panic, abort). A lost
// decrement hangs the run and a surplus one releases the coordinator
// early, so each run sits under a deadline and checks its results. Run
// with -race -cpu 1,2,4.

// within fails the test if f has not returned after d: a stranded
// coordinator or worker shows as a timeout here, not as a stuck suite.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("no result after %v; goroutines:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// latchBody is one Do body of mixed node and global phases. Every VP
// bumps its own slot of a node array twice and adds into its right
// neighbour's slot of a global array (remote for the last VP of a node).
func latchBody(a *Node[int64], g *Global[int64]) func(*VP) {
	return func(vp *VP) {
		r := vp.NodeRank()
		vp.NodePhase(func() { a.Write(vp, r, a.Read(vp, r)+1) })
		vp.GlobalPhase(func() {
			g.Add(vp, (vp.GlobalRank()+1)%g.Len(), 1)
		})
		vp.NodePhase(func() { a.Add(vp, r, 1) })
	}
}

func TestLatchWarmDoRun(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // the warm doRun is the subject
	const dos = 50
	for _, c := range []struct{ nodes, k int }{{1, 4096}, {2, 1024}} {
		var rep *Report
		var err error
		within(t, 2*time.Minute, func() {
			rep, err = Run(opts(c.nodes), func(rt *Runtime) {
				a := AllocNode[int64](rt, "latch.a", c.k)
				g := AllocGlobal[int64](rt, "latch.g", c.nodes*c.k)
				body := latchBody(a, g)
				for i := 0; i < dos; i++ {
					rt.Do(c.k, body)
				}
				for i, v := range a.Local(rt) {
					if v != 2*dos {
						t.Errorf("nodes=%d: node %d a[%d] = %d, want %d", c.nodes, rt.NodeID(), i, v, 2*dos)
						break
					}
				}
				for i, v := range g.Local(rt) {
					if v != dos {
						t.Errorf("nodes=%d: node %d g[%d] = %d, want %d", c.nodes, rt.NodeID(), i, v, dos)
						break
					}
				}
			})
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", c.nodes, err)
		}
		tot := rep.Totals
		if tot.Dos != int64(c.nodes*dos) || tot.VPsStarted != int64(c.nodes*dos*c.k) ||
			tot.NodePhases != int64(2*c.nodes*dos) || tot.GlobalPhases != int64(c.nodes*dos) {
			t.Errorf("nodes=%d: Dos %d VPsStarted %d NodePhases %d GlobalPhases %d", c.nodes,
				tot.Dos, tot.VPsStarted, tot.NodePhases, tot.GlobalPhases)
		}
		if want := int64(c.nodes * (dos - 1)); tot.PlanCache.Hits != want {
			t.Errorf("nodes=%d: plan hits %d, want %d: the Dos did not share one warm doRun", c.nodes, tot.PlanCache.Hits, want)
		}
	}
}

// Each way a Do can die keeps its error text, on a doRun that has
// already served warm invocations, and returns instead of hanging.
func TestLatchFailuresKeepTheirErrors(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const k, failAt = 4096, 3
	cases := []struct {
		name   string
		strict bool
		// misbehave runs at the top of the failing Do's body; it reports
		// whether the VP should go on with the regular body.
		misbehave func(vp *VP, g *Global[int64]) bool
		want      string
	}{
		{
			name: "panic mid-phase",
			misbehave: func(vp *VP, g *Global[int64]) bool {
				vp.GlobalPhase(func() {
					g.Add(vp, vp.NodeRank(), 1)
					if vp.NodeRank() == k/2 {
						panic("kaboom")
					}
				})
				return false
			},
			want: "core: VP 2048 on node 0 panicked: kaboom",
		},
		{
			name: "early exit and a phase-kind disagreement",
			misbehave: func(vp *VP, g *Global[int64]) bool {
				switch vp.NodeRank() {
				case 0:
					return false // exits without a phase
				case 1:
					vp.GlobalPhase(func() {})
					return false
				}
				return true // everyone else opens with a node phase
			},
			want: "core: phase shape mismatch on node 0: 4095 VPs at a phase boundary, 0 at a phase end, 1 exited — all K VPs of a Do must execute the same phase sequence",
		},
		{
			name:   "strict-mode conflict",
			strict: true,
			misbehave: func(vp *VP, g *Global[int64]) bool {
				vp.GlobalPhase(func() {
					if r := vp.NodeRank(); r == 5 || r == 9 {
						g.Write(vp, 0, int64(r))
					}
				})
				return false
			},
			want: "core: conflicting writes to latch.g[0] in one phase: VP 0:5 (write) and VP 0:9 (write)",
		},
	}
	for _, c := range cases {
		var err error
		within(t, 2*time.Minute, func() {
			o := opts(1)
			o.StrictWrites = c.strict
			_, err = Run(o, func(rt *Runtime) {
				a := AllocNode[int64](rt, "latch.a", k)
				g := AllocGlobal[int64](rt, "latch.g", k)
				regular := latchBody(a, g)
				round := 0
				body := func(vp *VP) {
					if round != failAt || c.misbehave(vp, g) {
						regular(vp)
					}
				}
				for round = 0; round <= failAt; round++ {
					rt.Do(k, body)
				}
			})
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v\nwant it to contain %q", c.name, err, c.want)
		}
	}
}

// Leak proofs (ROADMAP aim 3): VP workers are goroutines parked on a
// channel and the read logs are per-VP slices, so a run that forgets to
// retire its workers keeps both. After a run — finished or torn down by
// a VP panic, the path on which a latch could strand a parked worker —
// the goroutine count is back at its starting value within a second and
// a forced GC returns the heap to within 1 MB.

type leakProbe struct {
	goroutines int
	heap       uint64
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second empties the sync.Pool victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func newLeakProbe() leakProbe {
	return leakProbe{goroutines: runtime.NumGoroutine(), heap: liveHeap()}
}

func (p leakProbe) check(t *testing.T, label string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > p.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > p.goroutines {
		t.Errorf("%s: %d goroutines a second later, %d before", label, n, p.goroutines)
	}
	if h := liveHeap(); h > p.heap+1<<20 {
		t.Errorf("%s: live heap %d KB, %d KB before", label, h>>10, p.heap>>10)
	}
}

// searchProgram is the paper's Section 5 listing: one VP per key, each
// binary-searching a sorted global array with scalar reads, most of them
// remote. dos invocations share one warm doRun; when panicAt >= 0, VP 7
// of every node panics mid-phase in that invocation. Node 0 runs 4096
// VPs and every further node half its predecessor's, which keeps a
// two-node run under the race detector's 8128-goroutine ceiling.
func searchProgram(dos, panicAt int) func(rt *Runtime) {
	const n = 1 << 16
	return func(rt *Runtime) {
		k := 4096 >> rt.NodeID()
		A := AllocGlobal[float64](rt, "leak.A", n)
		rank := AllocNode[int64](rt, "leak.rank", k)
		lo, _ := A.OwnerRange(rt)
		for i, l := 0, A.Local(rt); i < len(l); i++ {
			l[i] = float64(2 * (lo + i))
		}
		round := 0
		body := func(vp *VP) {
			vp.GlobalPhase(func() {
				key := float64(2*((vp.NodeRank()*37+vp.Node()*11)%n) + 1)
				left, right := 0, n
				for left+1 < right {
					mid := (left + right) / 2
					if A.Read(vp, mid) < key {
						left = mid
					} else {
						right = mid
					}
				}
				if round == panicAt && vp.NodeRank() == 7 {
					panic("kaboom")
				}
				rank.Write(vp, vp.NodeRank(), int64(right))
			})
		}
		for round = 0; round < dos; round++ {
			rt.Do(k, body)
		}
	}
}

func TestNoLeakAfterRun(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	probe := newLeakProbe()
	if _, err := Run(opts(2), searchProgram(3, -1)); err != nil {
		t.Fatal(err)
	}
	probe.check(t, "after Run")

	_, err := Run(opts(2), searchProgram(3, 1))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("torn-down run: err = %v", err)
	}
	probe.check(t, "after a Run torn down by a VP panic")
}

func TestNoLeakAfterWarmSessionDiscard(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes = 2
	probe := newLeakProbe()
	// runMesh runs the program once on a fresh loop mesh, every rank with
	// its own warm session, and returns the sessions and rank errors.
	runMesh := func(panicAt int) ([]*WarmSession, []error) {
		mesh := newLoopMesh(nodes)
		sessions := make([]*WarmSession, nodes)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		for r := 0; r < nodes; r++ {
			sessions[r] = NewWarmSession()
			sessions[r].SetKey("search")
			wg.Add(1)
			go func() {
				defer wg.Done()
				opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic(), Warm: sessions[r]}
				_, errs[r] = RunDist(opt, mesh.engs[r], searchProgram(3, panicAt))
			}()
		}
		wg.Wait()
		return sessions, errs
	}

	sessions, errs := runMesh(-1)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if runtime.NumGoroutine() < probe.goroutines+4096 {
		t.Errorf("the warm sessions hold no parked workers: %d goroutines, %d before the run",
			runtime.NumGoroutine(), probe.goroutines)
	}
	for _, ws := range sessions {
		ws.Discard()
	}
	sessions = nil
	probe.check(t, "after WarmSession.Discard")

	// Every rank's VP 7 panics in the same phase, so each rank tears its
	// own Do down and no rank is left waiting for a dead peer.
	_, errs = runMesh(1)
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("torn-down rank %d: err = %v", r, err)
		}
	}
	probe.check(t, "after a RunDist torn down by a VP panic")
}
