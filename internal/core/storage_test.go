package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"ppm/internal/wire"
)

// TestSecondRunArrayAllocPin runs one program twice on the simulator
// with the collector off and pins what the second run allocates: the
// first run's Global and Node arrays go back to the storage pool when it
// ends, so the second draws them from there instead of allocating them
// again. It must allocate less than the Global's bytes alone. Both runs
// go on one P: a buffer in one P's private slot of a sync.Pool is
// invisible to a Get on another, which made the pin fail about 2 times
// in 400.
func TestSecondRunArrayAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const nodes, gn, an = 2, 1 << 19, 1 << 16
	prog := func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "g", gn)
		a := AllocNode[int64](rt, "a", an)
		g.Local(rt)[0] = 1
		a.Local(rt)[0] = 1
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Add(vp, (vp.GlobalRank()*gn/3)%gn, g.Read(vp, gn-1)+1)
				a.Add(vp, vp.NodeRank(), 1)
			})
		})
	}
	o := Options{Nodes: nodes, CoresPerNode: 2}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Run(o, prog); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(o, prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second, bound := after.TotalAlloc-before.TotalAlloc, uint64(gn*8)
	t.Logf("the second run allocated %.2f MiB", float64(second)/(1<<20))
	if second >= bound {
		t.Errorf("the second run allocated %d bytes, want less than the Global's %d: its arrays were allocated again instead of drawn from the pool", second, bound)
	}
}

// TestSearchDoBytesPerVP pins what the runtime allocates per VP for the
// paper's Section 5 listing run as a one-shot Do: K = 4096 VPs a node,
// each a binary search over a Global of 2^18 sorted keys (about 18
// probes, half or more of them remote beyond one node) and one Node
// write. The program runs twice with the collector off and the second
// run is measured, so its arrays and phase scratch come from the pools
// the first run filled (emptied of other tests' leftovers by two
// collections first) and what is left is the runtime's bookkeeping. As
// in TestSecondRunArrayAllocPin, both runs go on one P: on another P
// the second run may miss the pooled Global and allocate its 2 MiB
// again (256 B a VP at 2 nodes). With the phase scratch made afresh in
// every doRun it measured 128 / 275 / 347 B a VP at 1 / 2 / 4 nodes;
// drawn from the pools, 106 / 108 / 109 B (go1.24, linux/amd64).
func TestSearchDoBytesPerVP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const k, n = 4096, 1 << 18
	prog := func(rt *Runtime) {
		a := AllocGlobal[float64](rt, "A", n)
		b := AllocNode[float64](rt, "B", k)
		rank := AllocNode[int64](rt, "rank_in_A", k)
		lo, _ := a.OwnerRange(rt)
		for i, local := 0, a.Local(rt); i < len(local); i++ {
			local[i] = float64(2 * (lo + i))
		}
		for j, keys := 0, b.Local(rt); j < k; j++ {
			keys[j] = float64(2*((j*2654435761+rt.NodeID()*97)%n) + 1)
		}
		rt.Do(k, func(vp *VP) {
			vp.GlobalPhase(func() {
				key := b.Read(vp, vp.NodeRank())
				left, right := 0, n
				for left+1 < right {
					middle := (left + right) / 2
					if a.Read(vp, middle) < key {
						left = middle
					} else {
						right = middle
					}
				}
				rank.Write(vp, vp.NodeRank(), int64(right))
			})
		})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct{ nodes, bound int }{{1, 120}, {2, 120}, {4, 120}} {
		o := Options{Nodes: c.nodes, CoresPerNode: 2}
		runtime.GC()
		runtime.GC()
		if _, err := Run(o, prog); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(o, prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perVP := int(after.TotalAlloc-before.TotalAlloc) / (c.nodes * k)
		t.Logf("%d nodes: %d B per VP", c.nodes, perVP)
		if perVP > c.bound {
			t.Errorf("%d nodes: the second run allocated %d B per VP, want at most %d", c.nodes, perVP, c.bound)
		}
	}
}

// TestArrayUseAfterRunPanics: a Global or a Node whose run has ended has
// handed its storage back, so every access to it panics naming the array
// and the reason: at node level with the finished run's Runtime, and
// inside a phase of a later run, where the panic comes back as that run's
// error. Without the check it would be an index out of range at best, and
// another run's data at worst.
func TestArrayUseAfterRunPanics(t *testing.T) {
	const gn = 64
	var (
		g   *Global[float64]
		a   *Node[int64]
		old *Runtime
	)
	mustRun(t, opts(2), func(rt *Runtime) {
		gg := AllocGlobal[float64](rt, "g", gn)
		aa := AllocNode[int64](rt, "a", 8)
		if rt.NodeID() == 0 {
			g, a, old = gg, aa, rt
		}
	})
	const ended = " after its run ended"
	for _, tc := range []struct {
		want string
		use  func()
	}{
		{`Global("g").Local`, func() { g.Local(old) }},
		{`Global("g").At`, func() { g.At(old, 3) }},
		{`Node("a").Local`, func() { a.Local(old) }},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want+ended) {
					t.Errorf("%s after the run: panic %q, want it to say %q", tc.want, msg, tc.want+ended)
				}
			}()
			tc.use()
		}()
	}
	fbuf, ibuf := make([]float64, 4), make([]int64, 4)
	for _, tc := range []struct {
		want string
		use  func(vp *VP)
	}{
		{`Global("g").Read`, func(vp *VP) { g.Read(vp, 3) }},
		{`Global("g").Read`, func(vp *VP) { g.Read(vp, gn-1) }},
		{`Global("g").ReadBlock`, func(vp *VP) { g.ReadBlock(vp, 0, 4, fbuf) }},
		{`Global("g").Write`, func(vp *VP) { g.Write(vp, 3, 1) }},
		{`Global("g").Write`, func(vp *VP) { g.Add(vp, gn-1, 1) }},
		{`Global("g").WriteBlock`, func(vp *VP) { g.WriteBlock(vp, 0, fbuf) }},
		{`Global("g").AddBlock`, func(vp *VP) { g.AddBlock(vp, 0, fbuf) }},
		{`Node("a").Read`, func(vp *VP) { a.Read(vp, 3) }},
		{`Node("a").ReadBlock`, func(vp *VP) { a.ReadBlock(vp, 0, 4, ibuf) }},
		{`Node("a").Write`, func(vp *VP) { a.Add(vp, 3, 1) }},
		{`Node("a").WriteBlock`, func(vp *VP) { a.WriteBlock(vp, 0, ibuf) }},
	} {
		for _, global := range []bool{true, false} {
			_, err := Run(opts(2), func(rt *Runtime) {
				rt.Do(1, func(vp *VP) {
					if global {
						vp.GlobalPhase(func() { tc.use(vp) })
					} else {
						vp.NodePhase(func() { tc.use(vp) })
					}
				})
			})
			if err == nil || !strings.Contains(err.Error(), tc.want+ended) {
				t.Errorf("%s in a later run (global phase %v): err = %v, want it to say %q", tc.want, global, err, tc.want+ended)
			}
		}
	}
}

// Every array of one element type draws on one pool, and a named element
// type has its own: a wire.Pool[celsius] is never the wire.Pool[float64],
// which a type switch over the element types could not arrange.
func TestPoolForPerElementType(t *testing.T) {
	type celsius float64
	f, c := poolFor[wire.Pool[float64]](), poolFor[wire.Pool[celsius]]()
	r, rc := poolFor[wire.Pool[writeRec[float64]]](), poolFor[wire.Pool[writeRec[celsius]]]()
	if f != poolFor[wire.Pool[float64]]() || r != poolFor[wire.Pool[writeRec[float64]]]() {
		t.Error("two lookups of one pool type gave two pools")
	}
	if unsafe.Pointer(f) == unsafe.Pointer(c) || unsafe.Pointer(r) == unsafe.Pointer(rc) {
		t.Error("distinct element types share a pool")
	}
}

// Looking a process-wide pool up allocates nothing, so that a doRun may
// look up the pools of its chunk kinds whenever it is built. Keyed by
// the type itself, the lookup boxed a zero P, which for a wire.Pool is
// one allocation of its whole header.
func TestPoolForDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	poolFor[wire.Pool[float64]]()
	if n := testing.AllocsPerRun(100, func() { poolFor[wire.Pool[float64]]() }); n != 0 {
		t.Errorf("poolFor allocated %v times a lookup, want 0", n)
	}
}
