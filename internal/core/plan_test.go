package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"ppm/internal/machine"
)

// The phase-plan cache must be invisible in every modeled respect: a
// shape-stable program replays its plans (and the counters say so), a
// shape-shifting program falls back to the cold merge (and the counters
// say so), and either way the committed data and modeled statistics are
// bit-identical to a run with the cache disabled.

// planRun executes iters global phases of `phase` over a shared array of
// n elements at the given node count and returns the final array, the
// per-node stats, and the totals. The body of every phase is a function
// of (iteration, VP) only, so cache-on and cache-off runs perform
// exactly the same accesses.
func planRun(t *testing.T, nodes, k, iters, n int, noCache bool,
	phase func(it int, vp *VP, g *Global[float64], buf []float64)) ([]float64, []NodeStats, NodeStats) {
	t.Helper()
	out := make([]float64, n)
	o := Options{Nodes: nodes, Machine: machine.Generic(), NoPlanCache: noCache}
	rep := mustRun(t, o, func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "plan.g", n)
		lo, _ := g.OwnerRange(rt)
		l := g.Local(rt)
		for i := range l {
			l[i] = float64(lo+i) * 0.25
		}
		for it := 0; it < iters; it++ {
			it := it
			rt.Do(k, func(vp *VP) {
				buf := make([]float64, n)
				vp.GlobalPhase(func() { phase(it, vp, g, buf) })
			})
		}
		glo, _ := g.OwnerRange(rt)
		copy(out[glo:], g.Local(rt))
		rt.Barrier()
	})
	return out, rep.PerNode, rep.Totals
}

// samePlanOutcome fails the test unless the two runs committed identical
// bits and identical modeled statistics (PlanCache excluded — it is the
// host-side bookkeeping under test, not part of the model).
func samePlanOutcome(t *testing.T, label string, gotV, wantV []float64, got, want []NodeStats) {
	t.Helper()
	for i := range wantV {
		if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				gotV[i], math.Float64bits(gotV[i]), wantV[i], math.Float64bits(wantV[i]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes of stats, want %d", label, len(got), len(want))
	}
	for nd := range want {
		if g, w := got[nd].Program(), want[nd].Program(); g != w {
			t.Errorf("%s: node %d counters diverge:\n cache-on  %+v\n cache-off %+v", label, nd, g, w)
		}
	}
}

// TestPlanCacheStableShape: an iteration-invariant phase shape records
// one plan per node on the first pass and replays it on every later one.
func TestPlanCacheStableShape(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // counters below assume Options wins
	const nodes, k, iters, n = 2, 3, 6, 48
	phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
		// Fixed remote block read plus one owned write per VP.
		tgt := (vp.Node() + 1) % vp.Nodes()
		rlo, rhi := ChunkRange(n, vp.Nodes(), tgt)
		g.ReadBlock(vp, rlo, rhi, buf[:rhi-rlo])
		var s float64
		for _, v := range buf[:rhi-rlo] {
			s += v
		}
		lo, _ := ChunkRange(n, vp.Nodes(), vp.Node())
		g.Write(vp, lo+vp.NodeRank(), s+float64(it))
	}
	warmV, warmS, warmT := planRun(t, nodes, k, iters, n, false, phase)
	coldV, coldS, coldT := planRun(t, nodes, k, iters, n, true, phase)
	samePlanOutcome(t, "stable", warmV, coldV, warmS, coldS)

	pc := warmT.PlanCache
	if want := int64(nodes); pc.Misses != want {
		t.Errorf("stable shape: Misses = %d, want %d (one cold build per node)", pc.Misses, want)
	}
	if want := int64(nodes * (iters - 1)); pc.Hits != want {
		t.Errorf("stable shape: Hits = %d, want %d", pc.Hits, want)
	}
	if pc.Invalidations != 0 {
		t.Errorf("stable shape: Invalidations = %d, want 0", pc.Invalidations)
	}
	if pc.Hits > 0 && pc.RunsReplayed == 0 {
		t.Error("stable shape: hits replayed no runs")
	}
	if off := coldT.PlanCache; off != (PlanCacheStats{}) {
		t.Errorf("NoPlanCache run still counted plan activity: %+v", off)
	}
}

// TestPlanCacheGrowingReadSet: a read range that grows every iteration
// invalidates the previous iteration's plan each time — all misses, no
// hits, and still bit-identical to the uncached run.
func TestPlanCacheGrowingReadSet(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, iters, n = 2, 2, 5, 64
	phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
		// The shape-shifting read targets the neighbor's partition: only
		// remote reads enter the merged read set (local reads cost no
		// traffic and are not part of the plan signature).
		tgt := (vp.Node() + 1) % vp.Nodes()
		rlo, _ := ChunkRange(n, vp.Nodes(), tgt)
		sz := 8 + 4*it
		g.ReadBlock(vp, rlo, rlo+sz, buf[:sz])
		var s float64
		for _, v := range buf[:sz] {
			s += v
		}
		lo, _ := ChunkRange(n, vp.Nodes(), vp.Node())
		g.Write(vp, lo+vp.NodeRank(), s)
	}
	warmV, warmS, warmT := planRun(t, nodes, k, iters, n, false, phase)
	coldV, coldS, _ := planRun(t, nodes, k, iters, n, true, phase)
	samePlanOutcome(t, "growing", warmV, coldV, warmS, coldS)

	pc := warmT.PlanCache
	if pc.Hits != 0 {
		t.Errorf("growing read set: Hits = %d, want 0", pc.Hits)
	}
	if want := int64(nodes * iters); pc.Misses != want {
		t.Errorf("growing read set: Misses = %d, want %d", pc.Misses, want)
	}
	if want := int64(nodes * (iters - 1)); pc.Invalidations != want {
		t.Errorf("growing read set: Invalidations = %d, want %d", pc.Invalidations, want)
	}
}

// TestPlanCacheWriteToAddSwitch: halfway through, the kernel switches
// from blind writes to read-modify-add — the scalar read joining the
// access shape invalidates the recorded plan exactly once per node,
// after which the new shape becomes hot again.
func TestPlanCacheWriteToAddSwitch(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, iters, n = 2, 2, 6, 48
	phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
		tgt := (vp.Node() + 1) % vp.Nodes()
		rlo, rhi := ChunkRange(n, vp.Nodes(), tgt)
		g.ReadBlock(vp, rlo, rhi, buf[:rhi-rlo])
		var s float64
		for _, v := range buf[:rhi-rlo] {
			s += v
		}
		lo, _ := ChunkRange(n, vp.Nodes(), vp.Node())
		i := lo + vp.NodeRank()
		if it < iters/2 {
			g.Write(vp, i, s*1e-3+float64(it))
		} else {
			// The switch: accumulate against a remote sample instead of
			// overwriting. The new scalar remote read changes the access
			// shape, so the recorded plan must be invalidated.
			old := g.Read(vp, rlo+vp.NodeRank())
			g.Add(vp, i, old*1e-6+s*1e-3)
		}
	}
	warmV, warmS, warmT := planRun(t, nodes, k, iters, n, false, phase)
	coldV, coldS, _ := planRun(t, nodes, k, iters, n, true, phase)
	samePlanOutcome(t, "write-to-add", warmV, coldV, warmS, coldS)

	pc := warmT.PlanCache
	if want := int64(nodes); pc.Invalidations != want {
		t.Errorf("write-to-add switch: Invalidations = %d, want %d (one per node at the switch)",
			pc.Invalidations, want)
	}
	if want := int64(nodes * (iters - 2)); pc.Hits != want {
		t.Errorf("write-to-add switch: Hits = %d, want %d (both halves hot after their first pass)",
			pc.Hits, want)
	}
}

// TestPlanCacheNodeCountRanges: a kernel whose read ranges are derived
// from the node layout must stay bit-identical with the cache on and off
// at every node count (plans are per-runtime, so layouts can never share
// one — this pins the observable consequence).
func TestPlanCacheNodeCountRanges(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const k, iters, n = 3, 4, 60
	for _, nodes := range []int{1, 2, 3} {
		phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
			// Neighbor partition: both the range bounds and the owner
			// split depend on the node count.
			tgt := (vp.Node() + 1) % vp.Nodes()
			rlo, rhi := ChunkRange(n, vp.Nodes(), tgt)
			g.ReadBlock(vp, rlo, rhi, buf[:rhi-rlo])
			var s float64
			for _, v := range buf[:rhi-rlo] {
				s += v
			}
			g.Add(vp, rlo+vp.NodeRank(), s*1e-6)
		}
		warmV, warmS, warmT := planRun(t, nodes, k, iters, n, false, phase)
		coldV, coldS, _ := planRun(t, nodes, k, iters, n, true, phase)
		label := "node-count"
		samePlanOutcome(t, label, warmV, coldV, warmS, coldS)
		if want := int64(nodes * (iters - 1)); warmT.PlanCache.Hits != want {
			t.Errorf("nodes=%d: Hits = %d, want %d", nodes, warmT.PlanCache.Hits, want)
		}
	}
}

// Scalar remote reads are validated as a per-VP sequence (see the note in
// plan.go): the same keys in the same order replay, and the same set in
// another order, one key more, or one key fewer each invalidate the plan
// once, record the new shape, and replay that. Whatever the cache
// decides, the run stays bit-identical to one without it.
func TestPlanCacheScalarReadSequence(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, iters, n = 2, 3, 4, 48
	// Each VP reads keysOf(it) of the neighbour's partition, by offset.
	cases := []struct {
		name   string
		keysOf func(it int) []int
	}{
		{"another order", func(it int) []int {
			if it < iters/2 {
				return []int{3, 11, 7}
			}
			return []int{7, 3, 11}
		}},
		{"one key more", func(it int) []int {
			if it < iters/2 {
				return []int{3, 11}
			}
			return []int{3, 11, 7}
		}},
		{"one key fewer", func(it int) []int {
			if it < iters/2 {
				return []int{3, 11, 7}
			}
			return []int{3, 11}
		}},
	}
	for _, c := range cases {
		phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
			rlo, _ := ChunkRange(n, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
			var s float64
			for _, off := range c.keysOf(it) {
				s += g.Read(vp, rlo+off+vp.NodeRank())
			}
			lo, _ := ChunkRange(n, vp.Nodes(), vp.Node())
			g.Write(vp, lo+vp.NodeRank(), s+float64(it))
		}
		warmV, warmS, warmT := planRun(t, nodes, k, iters, n, false, phase)
		coldV, coldS, _ := planRun(t, nodes, k, iters, n, true, phase)
		samePlanOutcome(t, c.name, warmV, coldV, warmS, coldS)
		pc := warmT.PlanCache
		// Per node: record, hit, invalidate + record, hit.
		if pc.Misses != 2*nodes || pc.Hits != 2*nodes || pc.Invalidations != nodes {
			t.Errorf("%s: misses %d hits %d invalidations %d, want %d %d %d", c.name,
				pc.Misses, pc.Hits, pc.Invalidations, 2*nodes, 2*nodes, nodes)
		}
		// RunsReplayed counts log entries: the hit of each half replays
		// every VP's keys of that half.
		want := int64(nodes * k * (len(c.keysOf(0)) + len(c.keysOf(iters-1))))
		if pc.RunsReplayed != want {
			t.Errorf("%s: RunsReplayed = %d, want %d", c.name, pc.RunsReplayed, want)
		}
	}
}

// A VP that rereads two remote scalars forever holds a bounded log, as
// it held a two-entry set before, and the node still fetches two
// elements.
func TestReadLogStaysBounded(t *testing.T) {
	const n, rereads = 16, 100000
	longest := 0
	rep := mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "log.g", n) // node 1 owns [8, 16)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() {
				if vp.Node() != 0 {
					return
				}
				for i := 0; i < rereads; i++ {
					g.Read(vp, 9)
					g.Read(vp, 12)
					longest = max(longest, len(vp.lane.keys.cur))
				}
			})
		})
	})
	if longest > readLogCompactMin+1 {
		t.Errorf("the read log reached %d entries for 2 distinct keys", longest)
	}
	if longest <= 2 {
		t.Errorf("the read log never exceeded %d entries: the test does not reach a compaction", longest)
	}
	if got := rep.Totals.RemoteReadElems; got != 2 {
		t.Errorf("RemoteReadElems = %d, want 2", got)
	}
	if got := rep.Totals.SharedReads; got != 2*rereads {
		t.Errorf("SharedReads = %d, want %d", got, 2*rereads)
	}
}

// Crossing the compaction threshold mid-phase changes no counter: one VP
// that reads 2500 remote keys twice over (5000 log appends, one
// compaction on the way) produces the traffic of two VPs that read them
// once each (2500 appends apiece, none), and its own warm replay, which
// must reproduce the compacted log key for key, matches the cold run.
func TestReadLogCompactionIsInvisible(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const n, distinct, iters = 8192, 2500, 3
	run := func(k, passes int, noCache bool) NodeStats {
		var crossed atomic.Bool
		o := opts(2)
		o.NoPlanCache = noCache
		rep := mustRun(t, o, func(rt *Runtime) {
			g := AllocGlobal[float64](rt, "log.g", n) // node 1 owns [4096, 8192)
			body := func(vp *VP) {
				vp.GlobalPhase(func() {
					if vp.Node() != 0 {
						return
					}
					for p := 0; p < passes; p++ {
						for i := 0; i < distinct; i++ {
							g.Read(vp, n/2+(i*7)%distinct) // scattered, not ascending
						}
					}
					if vp.lane.mark > 0 {
						crossed.Store(true)
					}
				})
			}
			for it := 0; it < iters; it++ {
				rt.Do(k, body)
			}
		})
		if want := passes > 1; crossed.Load() != want {
			t.Fatalf("k=%d passes=%d: compacted mid-phase = %v, want %v", k, passes, crossed.Load(), want)
		}
		return rep.Totals
	}
	one := run(1, 2, false)
	two := run(2, 1, false)
	cold := run(1, 2, true)
	if one.RemoteReadElems != iters*distinct {
		t.Errorf("RemoteReadElems = %d, want %d", one.RemoteReadElems, iters*distinct)
	}
	if one.PlanCache.Hits != 2*(iters-1) || one.PlanCache.Invalidations != 0 {
		t.Errorf("crossing run: plan hits %d invalidations %d, want %d and 0: the compacted log did not reproduce",
			one.PlanCache.Hits, one.PlanCache.Invalidations, 2*(iters-1))
	}
	traffic := func(s NodeStats) [5]int64 {
		return [5]int64{s.SharedReads, s.RemoteReadElems, s.BundlesOut, s.BytesOut, s.GlobalPhases}
	}
	if traffic(one) != traffic(two) {
		t.Errorf("crossing the threshold moved a counter: %v, without crossing %v", traffic(one), traffic(two))
	}
	if one.Program() != cold.Program() {
		t.Errorf("crossing run diverges from its uncached twin:\n cache-on  %+v\n cache-off %+v", one, cold)
	}
}

// A warm Do allocates nothing once its plans are recorded, scalar remote
// reads included: K = 1024 VPs, two global phases, 16 remote scalar
// reads per VP, the logs at their working size from the recording pass.
func TestWarmDoWithScalarReadsDoesNotAllocate(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, n, runs = 2, 1024, 1 << 14, 10
	var allocs float64
	mustRun(t, opts(nodes), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "warm.g", n)
		out := AllocNode[float64](rt, "warm.out", k)
		body := func(vp *VP) {
			rlo, rhi := ChunkRange(n, nodes, (vp.Node()+1)%nodes)
			for ph := 0; ph < 2; ph++ {
				vp.GlobalPhase(func() {
					var s float64
					for j := 0; j < 8; j++ {
						s += g.Read(vp, rlo+(vp.NodeRank()*131+j*977+ph)%(rhi-rlo))
					}
					out.Write(vp, vp.NodeRank(), s)
				})
			}
		}
		for i := 0; i < 3; i++ {
			rt.Do(k, body)
		}
		rt.Barrier()
		// AllocsPerRun counts the whole process, so measuring on node 0
		// covers node 1's half of every phase as well; node 1 just keeps
		// step (one warm-up call plus the measured runs).
		if rt.NodeID() == 0 {
			allocs = testing.AllocsPerRun(runs, func() { rt.Do(k, body) })
		} else {
			for i := 0; i <= runs; i++ {
				rt.Do(k, body)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Do allocated %v times", allocs)
	}
}

// Ownership of the taken logs. The scalar keys go A, A, B, B, A, A over
// six iterations, so each node records, hits, invalidates and re-records
// twice, the second time swapping the plan's keys of the other shape back
// to the lanes. VP 0 logs past readLogCompactMin (its log outgrows its
// chunk, moves, and is compacted in place on the way), VP 1 past
// chunkMax (a move to a chunk of its own), VP 2 stays inside its chunk. A chunk shared by a
// plan and a lane, or by two VPs' logs, would have one of them overwrite
// the keys the other validates against: a false hit or a wrong count,
// which the comparison with the cache-off run and the exact counters
// below catch.
func TestPlanCacheLogOwnership(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, iters, n = 2, 3, 6, 1 << 14
	reads := [k]int{readLogCompactMin + 900, chunkMax + 16, 3}
	phase := func(it int, vp *VP, g *Global[float64], buf []float64) {
		rlo, rhi := ChunkRange(n, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
		shift := (it / 2 % 2) * 5 // A, A, B, B, A, A
		var s float64
		for j := 0; j < reads[vp.NodeRank()]; j++ {
			s += g.Read(vp, rlo+(j*7+shift+vp.NodeRank())%(rhi-rlo))
		}
		lo, _ := ChunkRange(n, vp.Nodes(), vp.Node())
		g.Write(vp, lo+vp.NodeRank(), s+float64(it))
	}
	warmV, warmS, _ := planRun(t, nodes, k, iters, n, false, phase)
	coldV, coldS, _ := planRun(t, nodes, k, iters, n, true, phase)
	samePlanOutcome(t, "log ownership", warmV, coldV, warmS, coldS)
	for nd, s := range warmS {
		if pc := s.PlanCache; pc.Misses != 3 || pc.Hits != 3 || pc.Invalidations != 2 {
			t.Errorf("node %d: misses %d hits %d invalidations %d, want 3 3 2",
				nd, pc.Misses, pc.Hits, pc.Invalidations)
		}
	}
}

// Recording a phase copies no key. In a cold, never-repeated Do of
// K = 1024 VPs with 16 scalar remote reads each, the plan's keys of every
// VP are the very keys the VP logged, in the lane chunk it logged them
// in; and the run allocates the chunks, which follow the keys logged,
// plus a fixed budget. A plan of block reads holds no key at all.
func TestPlanRecordTakesLogsWithoutCopying(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, n, perVP = 2, 1024, 1 << 14, 16
	// The keys: 8 bytes each, and at most a chunk per lane (say 8 a node)
	// beyond them.
	const keys = nodes*k*perVP*8 + nodes*8*chunkMax*8
	// What else the run allocates: the VP slabs and segment tables (about
	// 100 KB a node), the merge's key scratch (8 bytes a key, 130 KB a
	// node, rounded up to a pool class), the array and the simulated
	// cluster: 0.5 to 0.65 MB when measured. A copy of the keys shows in the addresses
	// below, not in this bound.
	const budget = 3 << 18
	var logged [nodes][k]*readKey
	var copied, vps atomic.Int64
	prog := func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "cold.g", n)
		rlo, rhi := ChunkRange(n, nodes, (rt.NodeID()+1)%nodes)
		rt.Do(k, func(vp *VP) {
			vp.GlobalPhase(func() {
				for j := 0; j < perVP; j++ {
					g.Read(vp, rlo+(vp.NodeRank()*131+j*977)%(rhi-rlo))
				}
				logged[vp.Node()][vp.NodeRank()] = &vp.lane.keys.cur[0]
			})
		})
		for _, d := range rt.warm {
			p := &d.plans[0]
			for v := range p.segs {
				s := &p.segs[v]
				vps.Add(1)
				if keys := part(p.keys[s.lane], s.keyChunk, s.keyLo, s.keyHi); len(keys) != perVP || &keys[0] != logged[rt.NodeID()][v] {
					copied.Add(1)
				}
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mustRun(t, opts(nodes), prog)
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("the cold run allocated %d bytes", got)
	if got > keys+budget {
		t.Errorf("the cold run allocated %d bytes, want at most the %d of its keys plus %d", got, keys, budget)
	}
	if vps.Load() != nodes*k || copied.Load() != 0 {
		t.Errorf("the plans hold %d VPs' keys, %d of them not where the VP logged them; want %d and 0",
			vps.Load(), copied.Load(), nodes*k)
	}

	mustRun(t, opts(nodes), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "cold.g", n)
		rlo, _ := ChunkRange(n, nodes, (rt.NodeID()+1)%nodes)
		rt.Do(4, func(vp *VP) {
			var buf [8]float64
			vp.GlobalPhase(func() { g.ReadBlock(vp, rlo, rlo+8, buf[:]) })
		})
		for _, d := range rt.warm {
			chunks := len(d.keyPool.free)
			for _, list := range d.plans[0].keys {
				chunks += len(list)
			}
			if p := &d.plans[0]; !p.valid || chunks != 0 {
				t.Errorf("node %d: a block-read plan (valid=%v) and its doRun hold %d key chunks",
					rt.NodeID(), p.valid, chunks)
			}
		}
	})
}

// Once a plan and its VPs have a log each, invalidating and re-recording
// swaps them and allocates nothing: after a warm-up of A, B, A, B a
// further A, B pair (two invalidations, two recordings per node) is free.
func TestPlanReRecordSwapsLogsWithoutAllocating(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, n, runs = 2, 64, 1 << 12, 10
	var allocs float64
	rep := mustRun(t, opts(nodes), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "swap.g", n)
		out := AllocNode[float64](rt, "swap.out", k)
		rlo, rhi := ChunkRange(n, nodes, (rt.NodeID()+1)%nodes)
		shift := 0
		body := func(vp *VP) {
			vp.GlobalPhase(func() {
				var s float64
				for j := 0; j < 16; j++ {
					s += g.Read(vp, rlo+(vp.NodeRank()*131+j*977+shift)%(rhi-rlo))
				}
				out.Write(vp, vp.NodeRank(), s)
			})
		}
		pair := func() {
			shift = 0
			rt.Do(k, body)
			shift = 3
			rt.Do(k, body)
		}
		pair()
		pair()
		rt.Barrier()
		// As in TestWarmDoWithScalarReadsDoesNotAllocate: node 0 measures
		// the whole process, node 1 keeps step.
		if rt.NodeID() == 0 {
			allocs = testing.AllocsPerRun(runs, pair)
		} else {
			for i := 0; i <= runs; i++ {
				pair()
			}
		}
	})
	if allocs != 0 {
		t.Errorf("an invalidate / re-record pair allocated %v times", allocs)
	}
	const pairs = 2 + 1 + runs
	if pc := rep.Totals.PlanCache; pc.Hits != 0 || pc.Misses != nodes*2*pairs || pc.Invalidations != nodes*(2*pairs-1) {
		t.Errorf("misses %d hits %d invalidations %d, want %d 0 %d: the pairs did not re-record",
			pc.Misses, pc.Hits, pc.Invalidations, nodes*2*pairs, nodes*(2*pairs-1))
	}
}

// An idle warm session keeps its plans and nothing of the run that
// recorded them: no lane, and through the lanes no write buffer and no
// array, no spare chunk, no Runtime. What it handed back to the pools is
// bare slices, so once the job is over nothing keeps its arrays alive.
// The next run under the same key still replays every plan.
func TestIdleWarmSessionPinsNothingOfTheRun(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	const nodes, k, n = 2, 4, 256
	sessions := make([]*WarmSession, nodes)
	for r := range sessions {
		sessions[r] = NewWarmSession()
	}
	arrays := make([]weak.Pointer[Global[float64]], nodes)
	job := func() []*Report {
		mesh := newLoopMesh(nodes) // its commit slots are keyed by phase: one job each
		reps := make([]*Report, nodes)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		for r := 0; r < nodes; r++ {
			sessions[r].SetKey("job")
			wg.Add(1)
			go func() {
				defer wg.Done()
				opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic(), Warm: sessions[r]}
				reps[r], errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
					g := AllocGlobal[float64](rt, "idle.g", n)
					arrays[r] = weak.Make(g)
					rlo, _ := ChunkRange(n, nodes, (rt.NodeID()+1)%nodes)
					lo, _ := g.OwnerRange(rt)
					rt.Do(k, func(vp *VP) {
						var buf [8]float64
						vp.GlobalPhase(func() {
							// A block read, scalar reads and a write: every
							// kind of per-VP state a doRun can hold.
							g.ReadBlock(vp, rlo, rlo+8, buf[:])
							s := g.Read(vp, rlo+16+vp.NodeRank()) + g.Read(vp, rlo+40+vp.NodeRank())
							g.Write(vp, lo+vp.NodeRank(), s+buf[0])
						})
					})
				})
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return reps
	}

	job()
	runtime.GC()
	runtime.GC()
	for r, w := range arrays {
		if w.Value() != nil {
			t.Errorf("rank %d: the finished job's Global is still reachable", r)
		}
	}
	for r, ws := range sessions {
		if len(ws.warm) == 0 {
			t.Fatalf("rank %d: the session stashed no doRun", r)
		}
		for _, d := range ws.warm {
			pools := d.keyPool.free != nil || d.runPool.free != nil || d.touchPool.free != nil || d.recPools != nil
			if d.rt != nil || d.body != nil || d.lanes != nil || pools {
				t.Errorf("rank %d: an idle doRun keeps rt=%v body=%v lanes=%v chunk pools=%v (true: still set)",
					r, d.rt != nil, d.body != nil, d.lanes != nil, pools)
			}
			for range cap(d.laneCh) {
				if l := <-d.laneCh; l != nil {
					t.Errorf("rank %d: an idle doRun keeps a lane", r)
				}
				d.laneCh <- nil
			}
			for i := range d.vps {
				if d.vps[i].lane != nil {
					t.Errorf("rank %d: idle VP %d keeps a lane", r, i)
				}
			}
			if len(d.plans) != 1 || !d.plans[0].valid || len(d.plans[0].segs) != k {
				t.Errorf("rank %d: the idle doRun's plan did not survive the stash: %+v", r, d.plans)
			}
		}
	}
	for r, rep := range job() {
		if pc := rep.PerNode[r].PlanCache; pc.Hits != 1 || pc.Misses != 0 || pc.Invalidations != 0 {
			t.Errorf("rank %d: the second job under the same key had hits %d misses %d invalidations %d, want 1 0 0",
				r, pc.Hits, pc.Misses, pc.Invalidations)
		}
	}
}
