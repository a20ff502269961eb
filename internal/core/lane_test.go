package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"ppm/internal/machine"
	"ppm/internal/wire"
)

// A VP's phase bookkeeping (its read log and block-read runs, its access
// counters, its write staging) is harvested at the commit in VP-rank
// order, whichever goroutine ran the VP and whichever VPs ran before it
// on that goroutine. laneProgram is built to show any mix-up: K = 4096
// VPs a node, three global phases with scalar remote reads, block reads,
// Writes and Adds in every one, ranks returning at every ordinal, a few
// conflicting writes and stale reads for StrictWrites to list, and the
// third phase's read shape changing with the iteration, so that a warm
// doRun records, replays, invalidates and re-records plans. The golden
// values were captured at commit 98f2b5c, where every VP held its own
// bookkeeping in a K-sized slab.

const laneNodes, laneK, laneN = 2, 4096, 1 << 14

func laneProgram(out *[laneNodes]uint64) func(rt *Runtime) {
	return func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "lane.g", laneN)
		acc := AllocGlobal[float64](rt, "lane.acc", laneN)
		a := AllocNode[float64](rt, "lane.a", laneK)
		c := AllocNode[int64](rt, "lane.c", laneK)
		lo, _ := g.OwnerRange(rt)
		for i, local := 0, g.Local(rt); i < len(local); i++ {
			local[i] = float64(lo+i) * 0.5
		}
		it := 0
		body := func(vp *VP) {
			r, node := vp.NodeRank(), vp.Node()
			vp.ChargeFlops(int64(100 + 3*r + 50*node))
			var buf [12]float64
			for ph := 0; ph < 3; ph++ {
				if r%8 == ph {
					vp.ChargeMem(int64(64 * r))
					return
				}
				vp.GlobalPhase(func() {
					gr := vp.GlobalRank()
					rlo, rhi := ChunkRange(laneN, laneNodes, (node+1)%laneNodes)
					reads := 3 + r%5
					if ph == 2 {
						reads += it % 2 // the third phase's shape alternates
					}
					s := 0.0
					for j := 0; j < reads; j++ {
						s += g.Read(vp, rlo+(r*131+j*977+ph*7)%(rhi-rlo))
					}
					blo := (r*37 + ph*101 + node*4000) % (laneN - len(buf))
					g.ReadBlock(vp, blo, blo+len(buf), buf[:])
					s += buf[r%len(buf)]
					w := (2*gr + ph) % laneN
					if r%1000 == 999 {
						w = 5 + 3*ph // a conflict: several writers of one element
					}
					g.Write(vp, w, s)
					if r%700 == 3 {
						s += g.Read(vp, w) // a stale read
					}
					acc.Add(vp, (gr*7+ph)%laneN, s)
					a.Write(vp, r, s+float64(ph))
					c.Add(vp, (r*3+ph)%laneK, int64(r))
					vp.ChargeFlops(int64(20*r + 7*ph))
				})
				vp.ChargeFlops(int64(10 + r%13))
			}
		}
		for ; it < 3; it++ {
			rt.Do(laneK, body)
		}
		h := fnv.New64a()
		for _, v := range g.Local(rt) {
			fmt.Fprintf(h, "%x ", math.Float64bits(v))
		}
		for _, v := range acc.Local(rt) {
			fmt.Fprintf(h, "%x ", math.Float64bits(v))
		}
		for _, v := range a.Local(rt) {
			fmt.Fprintf(h, "%x ", math.Float64bits(v))
		}
		for _, v := range c.Local(rt) {
			fmt.Fprintf(h, "%d ", v)
		}
		out[rt.NodeID()] = h.Sum64()
	}
}

// laneFingerprint renders the outputs' hashes, the makespan and every
// node's stats (the times as bits), and apart from them the strict
// lists. ReadsCoalesced is left out: on a mesh it counts fetch waits that
// happened to overlap.
func laneFingerprint(rep *Report, out [laneNodes]uint64) (stats, lists string) {
	var b strings.Builder
	fmt.Fprintf(&b, "out %#x %#x makespan %#x\n", out[0], out[1], math.Float64bits(rep.Makespan().Seconds()))
	for n, s := range rep.PerNode {
		times := [3]uint64{math.Float64bits(s.PhaseComputeTime.Seconds()), math.Float64bits(s.PhaseCommTime.Seconds()), math.Float64bits(s.PhaseApplyTime.Seconds())}
		s.PhaseComputeTime, s.PhaseCommTime, s.PhaseApplyTime = 0, 0, 0
		s.Wire.ReadsCoalesced = 0
		fmt.Fprintf(&b, "node %d: %+v times %#x\n", n, s, times)
	}
	hc, hh := fnv.New64a(), fnv.New64a()
	for _, c := range rep.Conflicts {
		fmt.Fprintln(hc, c)
	}
	hazards := 0
	for _, z := range rep.Hazards {
		fmt.Fprintln(hh, z)
		hazards += z.Count
	}
	return b.String(), fmt.Sprintf("conflicts %d %#x hazards %d %#x", len(rep.Conflicts), hc.Sum64(), hazards, hh.Sum64())
}

func checkLaneGolden(t *testing.T, name string, strict bool, rep *Report, out [laneNodes]uint64, want string) {
	t.Helper()
	wantLists := laneGoldenLax
	if strict {
		wantLists = laneGoldenStrict
	}
	stats, lists := laneFingerprint(rep, out)
	if stats != want {
		t.Errorf("%s:\n%swant\n%s", name, stats, want)
	}
	if lists != wantLists {
		t.Errorf("%s: %s, want %s", name, lists, wantLists)
	}
}

func TestLaneHandOverGolden(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "")
	checkLaneHandOver(t, func() {})
}

// checkLaneHandOver runs the lane program everywhere TestLaneHandOverGolden
// does, calling before ahead of every run, and checks it against the
// goldens.
func checkLaneHandOver(t *testing.T, before func()) {
	t.Helper()
	for _, c := range []struct {
		name string
		opt  func(o *Options)
		want string
	}{
		{"Run", func(o *Options) {}, laneGoldenSim},
		{"Run, parallel scheduler", func(o *Options) { o.Parallel = true }, laneGoldenSim},
		{"Run, plan cache off", func(o *Options) { o.NoPlanCache = true }, laneGoldenNoCache},
		{"Run, static schedule", func(o *Options) { o.StaticSchedule = true }, laneGoldenStatic},
		{"Run, strict", func(o *Options) { o.StrictWrites = true }, laneGoldenSim},
		{"Run, strict, parallel scheduler, plan cache off", func(o *Options) {
			o.StrictWrites, o.Parallel, o.NoPlanCache = true, true, true
		}, laneGoldenNoCache},
	} {
		o := Options{Nodes: laneNodes, CoresPerNode: 4, Machine: machine.Generic()}
		c.opt(&o)
		var out [laneNodes]uint64
		before()
		rep, err := Run(o, laneProgram(&out))
		if (err != nil) != o.StrictWrites {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		checkLaneGolden(t, c.name, o.StrictWrites, rep, out, c.want)
	}

	// The loop mesh: every rank reports its own node.
	for _, strict := range []bool{false, true} {
		mesh := newLoopMesh(laneNodes)
		reps := make([]*Report, laneNodes)
		errs := make([]error, laneNodes)
		var out [laneNodes]uint64
		var wg sync.WaitGroup
		before()
		for r := 0; r < laneNodes; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := Options{Nodes: laneNodes, CoresPerNode: 4, Machine: machine.Generic(), StrictWrites: strict}
				reps[r], errs[r] = RunDist(o, mesh.engs[r], laneProgram(&out))
			}()
		}
		wg.Wait()
		merged := &Report{PerNode: make([]NodeStats, laneNodes)}
		for r, rep := range reps {
			// The conflicting elements are node 0's, so rank 0 alone fails.
			if (errs[r] != nil) != (strict && r == 0) {
				t.Fatalf("loop mesh rank %d, strict %v: err = %v", r, strict, errs[r])
			}
			merged.PerNode[r] = rep.PerNode[r]
			merged.Conflicts = append(merged.Conflicts, rep.Conflicts...)
			merged.Hazards = MergeHazards(merged.Hazards, rep.Hazards)
		}
		checkLaneGolden(t, fmt.Sprintf("loop mesh, strict %v", strict), strict, merged, out, laneGoldenMesh)
	}
}

const laneGoldenSim = `out 0x9096b04ca1a7f903 0x4677557cc0f42a38 makespan 0x3fd4815877c90bf9
node 0: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73108 RemoteWriteElems:11856 BundlesOut:171 BundlesIn:36 BytesOut:1359424 BytesIn:253440 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73026} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fd479f15dea85cd 0x0 0x3f25de7d68247066]
node 1: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73137 RemoteWriteElems:15840 BundlesOut:180 BundlesIn:27 BytesOut:1423632 BytesIn:189696 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73390} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fd47c759ca9077c 0x0 0x3f21d6bb39dcad86]
`

const laneGoldenNoCache = `out 0x9096b04ca1a7f903 0x4677557cc0f42a38 makespan 0x3fd4815877c90bf9
node 0: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73108 RemoteWriteElems:11856 BundlesOut:171 BundlesIn:36 BytesOut:1359424 BytesIn:253440 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:0 Misses:0 Invalidations:0 RunsReplayed:0} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fd479f15dea85cd 0x0 0x3f25de7d68247066]
node 1: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73137 RemoteWriteElems:15840 BundlesOut:180 BundlesIn:27 BytesOut:1423632 BytesIn:189696 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:0 Misses:0 Invalidations:0 RunsReplayed:0} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fd47c759ca9077c 0x0 0x3f21d6bb39dcad86]
`

const laneGoldenStatic = `out 0x9096b04ca1a7f903 0x4677557cc0f42a38 makespan 0x3fe1dcdf023c41e9
node 0: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73108 RemoteWriteElems:11856 BundlesOut:171 BundlesIn:36 BytesOut:1359424 BytesIn:253440 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73026} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fe1d92b612b08e2 0x0 0x3f25de7d68247066]
node 1: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73137 RemoteWriteElems:15840 BundlesOut:180 BundlesIn:27 BytesOut:1423632 BytesIn:189696 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:0 CommitBytesEnc:0} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73390} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x3fe1da6d808a49b9 0x0 0x3f21d6bb39dcad86]
`

const laneGoldenMesh = `out 0x9096b04ca1a7f903 0x4677557cc0f42a38 makespan 0x0
node 0: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73108 RemoteWriteElems:11856 BundlesOut:171 BundlesIn:36 BytesOut:1359424 BytesIn:253440 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:166017 CommitBytesEnc:166017} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73026} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x0 0x0 0x0]
node 1: {Dos:3 VPsStarted:12288 GlobalPhases:9 NodePhases:0 SharedReads:472621 SharedWrites:110592 RemoteReadElems:73137 RemoteWriteElems:15840 BundlesOut:180 BundlesIn:27 BytesOut:1423632 BytesIn:189696 PhaseComputeTime:0s PhaseCommTime:0s PhaseApplyTime:0s Wire:{FramesOut:0 Flushes:0 ForcedFlushes:0 BytesOnWire:0 ReadReqsSent:0 ReadsCoalesced:0 CommitBytesRaw:269037 CommitBytesEnc:269037} PlanCache:{Hits:4 Misses:5 Invalidations:2 RunsReplayed:73390} Rescale:{FromProcs:0 ToProcs:0 Restores:0 RanksMoved:0 ElemsMoved:0}} times [0x0 0x0 0x0]
`

// What StrictWrites lists, on every backend; without it the lists are
// empty.
const (
	laneGoldenStrict = "conflicts 3 0x58c1e68195237cc2 hazards 108 0x509e5a109c53e9f"
	laneGoldenLax    = "conflicts 0 0xcbf29ce484222325 hazards 0 0xcbf29ce484222325"
)

// A chunked store keeps every holder's part whole and in place, however
// many chunks a phase fills (well past the point where the chunk size
// stops doubling), whether a part fits its chunk or moves; and a second
// phase of the same parts draws every chunk from the pool the first one
// filled.
func TestChunkedPartsStayWhole(t *testing.T) {
	var c chunked[int]
	pool := chunkPool[int]{src: new(wire.Pool[int])}
	type loc struct {
		chunk  uint16
		lo, hi int32
	}
	chunks := 0
	for round := 0; round < 2; round++ {
		var locs []loc
		var want [][]int
		item := 0
		for p := 0; p < 6000; p++ {
			n := p % 23
			if p%997 == 5 {
				n = 3000 // outgrows the largest chunk
			}
			var w []int
			for i := 0; i < n; i++ {
				c.add(item, &pool)
				w = append(w, item)
				item++
			}
			ch, lo, hi := c.end()
			locs, want = append(locs, loc{ch, lo, hi}), append(want, w)
		}
		if len(c.list) <= 64 {
			t.Fatalf("the phase filled %d chunks, want more than 64", len(c.list))
		}
		for p, l := range locs {
			if got := part(c.list, l.chunk, l.lo, l.hi); !slices.Equal(got, want[p]) {
				t.Fatalf("round %d part %d: %d items, want %d", round, p, len(got), len(want[p]))
			}
		}
		c.release(&pool)
		if round == 1 && len(pool.free) != chunks {
			t.Errorf("the second round grew the pool from %d to %d chunks", chunks, len(pool.free))
		}
		chunks = len(pool.free)
	}
}
