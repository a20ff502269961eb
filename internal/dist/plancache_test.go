package dist

import (
	"fmt"
	"slices"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/scatter"
	"ppm/internal/core"
	"ppm/internal/rng"
)

// Plan-cache equivalence on the distributed runtime. The cache's most
// dangerous surface is here: a warm phase open prefetches the recorded
// remote cover, and a warm commit replays recorded traffic deltas while
// the real commit bundles still flow. Every test in this file pins the
// same contract as the simulator tests: cache on and cache off must be
// bit-identical in outputs and in every modeled counter.

// planScatterSpec is the invalidation-heavy cousin of the scatter app:
// the remote read block's offset and width are re-drawn from a seeded
// stream every phase, so no iteration's plan survives to the next — on
// the distributed runtime each warm open prefetches a cover the commit
// then invalidates, exercising the cold-rebuild fallback under real
// wire traffic.
const (
	planScatterN     = 2400
	planScatterVPs   = 4
	planScatterIters = 4
)

func planScatterProg(out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "pc.acc", planScatterN)
		for it := 0; it < planScatterIters; it++ {
			iter := it
			rt.Do(planScatterVPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					nodes := vp.Nodes()
					tgt := (vp.Node() + 1) % nodes
					rlo, rhi := core.ChunkRange(planScatterN, nodes, tgt)
					// Seeded, iteration-dependent read window: the shape
					// shifts every phase, defeating the recorded plan.
					rw := rng.New(11).Split(uint64(iter + 1))
					span := rhi - rlo
					width := 8 + int(rw.Uint64()%uint64(span/2))
					off := int(rw.Uint64() % uint64(span-width))
					buf := make([]float64, width)
					g.ReadBlock(vp, rlo+off, rlo+off+width, buf)
					var sum float64
					for _, v := range buf {
						sum += v
					}
					r := rng.New(17).Split(uint64(iter*512 + vp.GlobalRank()))
					for j, i := 0, rlo; j < 24 && i < rhi; j++ {
						g.Add(vp, i, sum*1e-6+r.NormFloat64())
						i += 1 + int(r.Uint64()%5)
					}
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// TestDistPlanCacheInvalidationScatter runs the shape-shifting seeded
// scatter-add at 2 and 3 distributed nodes, cache on and cache off, and
// against the simulator: all three must agree bit-for-bit.
func TestDistPlanCacheInvalidationScatter(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			runProg := func(noCache bool) ([][]float64, []core.NodeStats) {
				opt := distOpt(nodes)
				opt.NoPlanCache = noCache
				out := make([][]float64, nodes)
				stats := make([]core.NodeStats, nodes)
				runMesh(t, nodes, func(rank int, eng *Engine) error {
					rep, err := core.RunDist(opt, eng, planScatterProg(out))
					if err != nil {
						return err
					}
					stats[rank] = rep.PerNode[rank]
					return nil
				})
				return out, stats
			}
			simOut := make([][]float64, nodes)
			simRep, err := core.Run(distOpt(nodes), planScatterProg(simOut))
			if err != nil {
				t.Fatal(err)
			}
			on, onStats := runProg(false)
			off, offStats := runProg(true)
			for n := 0; n < nodes; n++ {
				sameF64(t, fmt.Sprintf("node %d cache-on vs sim", n), on[n], simOut[n])
				sameF64(t, fmt.Sprintf("node %d cache-off vs sim", n), off[n], simOut[n])
			}
			samePerNode(t, onStats, simRep.PerNode)
			samePerNode(t, offStats, simRep.PerNode)
		})
	}
}

// mixedReadProg is a shape-stable phase whose remote cover mixes every
// kind of read over two arrays of different element size and three
// remote owners: from each other node, every VP block-reads a stretch of
// a, scalar-reads four adjacent elements of b (one range once coalesced)
// and two scattered elements of a. Each partition is smaller than a
// line, so a cold phase fetches it whole, once per array: the cold
// request count is deterministic; every node then writes elements its
// peers read next iteration, so a stale prefetch would show.
const (
	mixN     = 256
	mixVPs   = 3
	mixIters = 5
)

func mixedReadProg(outA [][]float64, outB [][]int32) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		a := core.AllocGlobal[float64](rt, "mix.a", mixN)
		b := core.AllocGlobal[int32](rt, "mix.b", mixN)
		lo, _ := a.OwnerRange(rt)
		la, lb := a.Local(rt), b.Local(rt)
		for i := range la {
			la[i] = float64(lo+i) * 0.5
			lb[i] = int32(3 * (lo + i))
		}
		for it := 0; it < mixIters; it++ {
			iter := it
			rt.Do(mixVPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					nodes, me, v := vp.Nodes(), vp.Node(), vp.NodeRank()
					var sum float64
					var isum int32
					for d := 1; d < nodes; d++ {
						olo, ohi := core.ChunkRange(mixN, nodes, (me+d)%nodes)
						w := (ohi - olo) / mixVPs
						s := olo + v*w
						buf := make([]float64, w/2)
						a.ReadBlock(vp, s, s+w/2, buf)
						for _, x := range buf {
							sum += x
						}
						for i := s; i < s+4; i++ {
							isum += b.Read(vp, i)
						}
						sum += a.Read(vp, s+w/2+1) + a.Read(vp, s+w/2+3)
					}
					mylo, _ := core.ChunkRange(mixN, nodes, me)
					a.Write(vp, mylo+v, sum*1e-3+float64(iter))
					b.Add(vp, mylo+v, isum%7)
				})
			})
		}
		outA[rt.NodeID()] = append([]float64(nil), a.Local(rt)...)
		outB[rt.NodeID()] = append([]int32(nil), b.Local(rt)...)
	}
}

// TestDistPlanCacheMixedCoverOneRequestPerOwner replays that plan on a
// four-node mesh: cache on, cache off and the simulator must agree bit
// for bit and counter for counter, every warm phase must be a plan hit,
// and a warm phase must cost each rank at most one read request per
// owner where a cold phase costs one per owner and array.
func TestDistPlanCacheMixedCoverOneRequestPerOwner(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // the two runs below differ by Options alone
	const nodes = 4
	runProg := func(noCache bool) ([][]float64, [][]int32, []core.NodeStats) {
		opt := distOpt(nodes)
		opt.NoPlanCache = noCache
		outA, outB := make([][]float64, nodes), make([][]int32, nodes)
		stats := make([]core.NodeStats, nodes)
		runMesh(t, nodes, func(rank int, eng *Engine) error {
			rep, err := core.RunDist(opt, eng, mixedReadProg(outA, outB))
			if err != nil {
				return err
			}
			stats[rank] = rep.PerNode[rank]
			return nil
		})
		return outA, outB, stats
	}
	simA, simB := make([][]float64, nodes), make([][]int32, nodes)
	simRep, err := core.Run(distOpt(nodes), mixedReadProg(simA, simB))
	if err != nil {
		t.Fatal(err)
	}
	onA, onB, onStats := runProg(false)
	offA, offB, offStats := runProg(true)
	for n := 0; n < nodes; n++ {
		sameF64(t, fmt.Sprintf("node %d a, cache-on vs sim", n), onA[n], simA[n])
		sameF64(t, fmt.Sprintf("node %d a, cache-off vs sim", n), offA[n], simA[n])
		if !slices.Equal(onB[n], simB[n]) || !slices.Equal(offB[n], simB[n]) {
			t.Fatalf("node %d b diverges:\n  on %v\n off %v\n sim %v", n, onB[n], offB[n], simB[n])
		}
	}
	samePerNode(t, onStats, simRep.PerNode)
	samePerNode(t, offStats, simRep.PerNode)

	const owners = nodes - 1
	for n := 0; n < nodes; n++ {
		if h := onStats[n].PlanCache.Hits; h != mixIters-1 {
			t.Errorf("node %d: %d plan hits, want %d (every phase after the first)", n, h, mixIters-1)
		}
		off := offStats[n].Wire.ReadReqsSent
		cold := off / mixIters
		if off%mixIters != 0 || cold <= owners {
			t.Fatalf("node %d: cache-off run sent %d read requests over %d identical phases; want a multiple, above %d a phase",
				n, off, mixIters, owners)
		}
		if on, max := onStats[n].Wire.ReadReqsSent, cold+owners*(mixIters-1); on > max {
			t.Errorf("node %d: cache-on run sent %d read requests, want at most %d (one cold phase of %d, then %d warm phases of one per owner)",
				n, on, max, cold, mixIters-1)
		}
	}
}

// launchAppEnv is launchApp with extra environment entries for every
// forked node process.
func launchAppEnv(t *testing.T, nodes int, spec AppSpec, env []string, args ...string) *Merged {
	t.Helper()
	if nodeBin == "" {
		t.Fatal("ppm-node binary was not built; see TestMain output")
	}
	results, err := LaunchLocal(LaunchOpts{
		Nodes:    nodes,
		NodeBin:  nodeBin,
		NodeArgs: append([]string{"-app", spec.App, "-cores", "2"}, args...),
		Env:      env,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFleetPlanCacheEquivalence forks real ppm-node fleets with
// PPM_PLAN_CACHE=1 and PPM_PLAN_CACHE=0 and requires bit-identical
// application output and modeled counters from both, for a
// fetch-dominated app (cg), a halo app (jacobi), and the commit-plane
// scatter workload at three nodes.
func TestFleetPlanCacheEquivalence(t *testing.T) {
	t.Run("cg", func(t *testing.T) {
		spec := AppSpec{App: "cg", CG: cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}}
		args := []string{"-cg-grid", "8x8x8", "-cg-iters", "6"}
		on := launchAppEnv(t, 2, spec, []string{"PPM_PLAN_CACHE=1"}, args...)
		off := launchAppEnv(t, 2, spec, []string{"PPM_PLAN_CACHE=0"}, args...)
		if on.CG.Iters != off.CG.Iters ||
			fmt.Sprintf("%x", on.CG.Residual) != fmt.Sprintf("%x", off.CG.Residual) {
			t.Fatalf("cg fleets diverge: on iters=%d res=%v, off iters=%d res=%v",
				on.CG.Iters, on.CG.Residual, off.CG.Iters, off.CG.Residual)
		}
		sameF64(t, "x", on.CG.X, off.CG.X)
		samePerNode(t, on.PerNode, off.PerNode)
		var hits int64
		for _, s := range on.PerNode {
			hits += s.PlanCache.Hits
		}
		if hits == 0 {
			t.Error("cg: PPM_PLAN_CACHE=1 fleet reported no plan hits — the cache never engaged")
		}
	})
	t.Run("jacobi", func(t *testing.T) {
		spec := AppSpec{App: "jacobi", Jacobi: jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}}
		args := []string{"-jacobi-grid", "10x6x4", "-jacobi-sweeps", "5"}
		on := launchAppEnv(t, 2, spec, []string{"PPM_PLAN_CACHE=1"}, args...)
		off := launchAppEnv(t, 2, spec, []string{"PPM_PLAN_CACHE=0"}, args...)
		sameF64(t, "u", on.Jacobi, off.Jacobi)
		samePerNode(t, on.PerNode, off.PerNode)
	})
	t.Run("scatter", func(t *testing.T) {
		spec := AppSpec{App: "scatter", Scatter: scatter.Params{}.WithDefaults()}
		on := launchAppEnv(t, 3, spec, []string{"PPM_PLAN_CACHE=1"})
		off := launchAppEnv(t, 3, spec, []string{"PPM_PLAN_CACHE=0"})
		for n := range off.Scatter {
			sameF64(t, fmt.Sprintf("node %d partition", n), on.Scatter[n], off.Scatter[n])
		}
		samePerNode(t, on.PerNode, off.PerNode)
	})
}
