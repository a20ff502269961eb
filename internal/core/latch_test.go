package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/machine"
)

// VP bodies run as calls on min(K, GOMAXPROCS) pool workers; a VP counts
// itself off a per-ordinal tally when it ends a phase body and runs on,
// and gets a goroutine of its own only when it must wait for ranks that
// have not run yet. These tests drive that where a miscount would show:
// thousands of VPs, a warm doRun whose three-phase body makes nearly
// every VP take a goroutine over in each of fifty Dos, and every path on
// which a VP leaves the population (return, panic, abort). A lost count
// hangs the run and a surplus one commits a phase early, so each run sits
// under a deadline and checks its results. `make race` runs them with
// -cpu 1,2,4: the worker count follows GOMAXPROCS, and with one worker
// every multi-phase body must still make progress.

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
		// want and also must both occur in the error.
		want string
		also []string
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
			// Which VP loses the race to name phase 0 is open; that the
			// error names one, both kinds and the rule is not.
			want: "core: phase shape mismatch on node 0: VP ",
			also: []string{" global phase ", " node phase ", "all K VPs of a Do must execute the same phase sequence"},
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
		for _, want := range append([]string{c.want}, c.also...) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v\nwant it to contain %q", c.name, err, want)
			}
		}
	}
}

// A VP that panics and leaves after the coordinator has looked for a
// failure, and before it looks at active, is the last goroutine out: the
// coordinator must return its error, not drain the Do as finished. The
// seam puts exactly that between the two looks, on a hand-built doRun
// whose one worker is the seam itself.
func TestLatchFailureInTheDrainWindowIsNotDropped(t *testing.T) {
	d := &doRun{k: 1, wakeup: make(chan struct{}, 1)}
	d.cond.L = &d.mu
	d.active.Store(1)
	d.rem[0].Store(1)
	coordinateGap = func(x *doRun) {
		if x == d && x.active.Load() == 1 {
			x.fail(fmt.Errorf("core: VP 0 on node 0 panicked: late"))
			x.active.Add(-1)
		}
	}
	defer func() {
		coordinateGap = nil
		if r := recover(); r != nil {
			// No rt behind d: finish was reached, so the Do drained clean.
			t.Fatalf("coordinate drained a failed Do as finished (%v)", r)
		}
	}()
	err := d.coordinate()
	if err == nil || !strings.Contains(err.Error(), "panicked: late") {
		t.Fatalf("coordinate returned %v, want the VP's failure", err)
	}
}

// All VPs alive must agree on the next phase; a VP that has returned is
// not a party to it. Ranks leave after zero, one, two and three phases,
// on a doRun reused ten times, and every survivor's phases still commit.
func TestLatchEarlyExitsAreNotAMismatch(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const k, dos = 4096, 10
	var rep *Report
	var err error
	within(t, 2*time.Minute, func() {
		rep, err = Run(opts(1), func(rt *Runtime) {
			a := AllocNode[int64](rt, "latch.a", k)
			body := func(vp *VP) {
				r := vp.NodeRank()
				for ph := 0; ph < r%4; ph++ {
					if ph == 1 {
						vp.GlobalPhase(func() { a.Add(vp, r, 1) })
					} else {
						vp.NodePhase(func() { a.Add(vp, r, 1) })
					}
				}
			}
			for i := 0; i < dos; i++ {
				rt.Do(k, body)
			}
			for i, v := range a.Local(rt) {
				if want := int64(dos * (i % 4)); v != want {
					t.Errorf("a[%d] = %d, want %d", i, v, want)
					break
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if tot := rep.Totals; tot.NodePhases != 2*dos || tot.GlobalPhases != dos {
		t.Errorf("NodePhases %d GlobalPhases %d, want %d and %d", tot.NodePhases, tot.GlobalPhases, 2*dos, dos)
	}
}

// GlobalRank and GlobalK are legal anywhere in a body. Outside a phase the
// coordinator may be opening the next one, and another node starting its
// Do, so a VP there must not read what those write; with equal K on every
// node it gets the same answer everywhere.
func TestLatchGlobalRankOutsideAPhase(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, dos = 2, 512, 10
	var bad atomic.Int64
	within(t, 2*time.Minute, func() {
		mustRun(t, opts(nodes), func(rt *Runtime) {
			g := AllocGlobal[int64](rt, "latch.g", nodes*k)
			body := func(vp *VP) {
				want := vp.Node()*k + vp.NodeRank()
				check := func() {
					if vp.GlobalRank() != want || vp.GlobalK() != nodes*k {
						bad.Add(1)
					}
				}
				check()
				vp.GlobalPhase(func() { check(); g.Add(vp, want, 1) })
				check()
				vp.GlobalPhase(func() { check(); g.Add(vp, want, 1) })
				check()
			}
			for i := 0; i < dos; i++ {
				rt.Do(k, body)
			}
		})
	})
	if bad.Load() != 0 {
		t.Errorf("%d GlobalRank/GlobalK calls gave a wrong answer", bad.Load())
	}
}

// A Do whose body ends with its only phase gives no VP a goroutine: the
// bodies of all 4096 run on the pool. Every VP samples the process's
// goroutine count from inside its phase; none may see more than the pool,
// the two proc goroutines, and what the test binary itself keeps around.
func TestLatchSinglePhaseDoStaysOnThePool(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const k, dos = 4096, 5
	base := runtime.NumGoroutine()
	var most atomic.Int64
	within(t, 2*time.Minute, func() {
		mustRun(t, opts(1), func(rt *Runtime) {
			g := AllocGlobal[int64](rt, "latch.g", k)
			body := func(vp *VP) {
				vp.GlobalPhase(func() {
					g.Add(vp, (vp.NodeRank()+1)%k, 1)
					n := int64(runtime.NumGoroutine())
					for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
					}
				})
			}
			for i := 0; i < dos; i++ {
				rt.Do(k, body)
			}
		})
	})
	// Beyond the baseline: within's goroutine, the cluster scheduler's and
	// the node's proc goroutine, the pool, and slack for a worker of the
	// previous Do that has left it but not yet exited.
	if limit := int64(base + 3 + 2*runtime.GOMAXPROCS(0)); most.Load() > limit {
		t.Errorf("%d goroutines alive inside a single-phase Do of %d VPs, want at most %d", most.Load(), k, limit)
	}
}

// Leak proofs (ROADMAP aim 3): a VP that had to wait holds a goroutine
// until its body returns, and the read logs are a slab per doRun. After a
// run — finished or torn down by a VP panic, the path on which a waiter
// could be left unwoken or a worker unjoined — the goroutine count is back
// at its starting value within a second and a forced GC returns the heap
// to within 1 MB.

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
	p.checkGoroutines(t, label)
	if h := liveHeap(); h > p.heap+1<<20 {
		t.Errorf("%s: live heap %d KB, %d KB before", label, h>>10, p.heap>>10)
	}
}

func (p leakProbe) checkGoroutines(t *testing.T, label string) {
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
}

// searchProgram is the paper's Section 5 listing: one VP per key, each
// binary-searching a sorted global array with scalar reads, most of them
// remote. dos invocations share one warm doRun; when panicAt >= 0, VP 7
// of every node panics mid-phase in that invocation. Node 0 runs 4096
// VPs and every further node half its predecessor's. With twoPhase the
// body ranks its key in a second phase as well, so that all but the last
// few VPs of a node wait there and take a goroutine over for the rest of
// the Do (the halving keeps a two-node run under the race detector's
// 8128-goroutine ceiling).
func searchProgram(dos, panicAt int, twoPhase bool) func(rt *Runtime) {
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
		search := func(vp *VP) {
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
		body := search
		if twoPhase {
			body = func(vp *VP) {
				search(vp)
				search(vp)
			}
		}
		for round = 0; round < dos; round++ {
			rt.Do(k, body)
		}
	}
}

func TestNoLeakAfterRun(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	probe := newLeakProbe()
	for _, twoPhase := range []bool{false, true} {
		if _, err := Run(opts(2), searchProgram(3, -1, twoPhase)); err != nil {
			t.Fatal(err)
		}
		probe.check(t, fmt.Sprintf("after Run (two phases: %v)", twoPhase))

		_, err := Run(opts(2), searchProgram(3, 1, twoPhase))
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("torn-down run: err = %v", err)
		}
		probe.check(t, fmt.Sprintf("after a Run torn down by a VP panic (two phases: %v)", twoPhase))
	}
}

func TestNoLeakAfterWarmSessionDiscard(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes = 2
	probe := newLeakProbe()
	// runMesh runs the program once on a fresh loop mesh, every rank with
	// its own warm session, and returns the sessions and rank errors.
	runMesh := func(panicAt int, twoPhase bool) ([]*WarmSession, []error) {
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
				_, errs[r] = RunDist(opt, mesh.engs[r], searchProgram(3, panicAt, twoPhase))
			}()
		}
		wg.Wait()
		return sessions, errs
	}
	mustSucceed := func(errs []error) {
		t.Helper()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	}

	// No goroutine outlives a Do, whether its VPs had to wait (two phases)
	// or not: the idle sessions hold recorded plans and nothing that runs.
	for _, twoPhase := range []bool{false, true} {
		sessions, errs := runMesh(-1, twoPhase)
		mustSucceed(errs)
		probe.checkGoroutines(t, fmt.Sprintf("idle warm sessions before Discard (two phases: %v)", twoPhase))
		for _, ws := range sessions {
			if len(ws.warm) == 0 {
				t.Error("the warm session kept no doRun")
			}
			ws.Discard()
		}
	}
	probe.check(t, "after WarmSession.Discard")

	// Every rank's VP 7 panics in the same phase, so each rank tears its
	// own Do down and no rank is left waiting for a dead peer.
	_, errs := runMesh(1, true)
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("torn-down rank %d: err = %v", r, err)
		}
	}
	probe.check(t, "after a RunDist torn down by a VP panic")
}
