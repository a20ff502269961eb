package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// TestSecondRunPhaseScratchAllocPin runs two programs twice each on
// simulated nodes with the collector off and pins what the second run
// allocates. Every doRun of the first run hands its VP slab, its segment
// tables, its lanes' chunks, its write arenas and its merge scratch back
// to the process-wide pools when its run ends, so the second run draws
// them from there instead of making them again. Both runs go on one P,
// as in TestSecondRunArrayAllocPin.
//
//   - Figure 1's cg (24x24x48, 20 iterations) on 4 nodes. Each doRun
//     building its phase scratch with make, the second run allocated
//     1.37 MiB; drawing chunks, arenas and merge scratch from the pools,
//     0.51 MiB (its Dos have 8 to 16 VPs, so slab and tables are small).
//   - A recording Do of K = 2048 VPs on 2 nodes, run three times: each
//     VP reads a remote element, so the first Do's plan takes the
//     doRun's segment table and the second opens another.
//     A VP slab (128 KiB) and two segment tables (80 KiB each) a node
//     made with make, the second run allocated 0.58 MiB; drawn from the
//     pools, 0.01 MiB (go1.24, linux/amd64).
func TestSecondRunPhaseScratchAllocPin(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	t.Setenv("PPM_PLAN_CACHE", "") // the Do records and replays its plan
	const k = 2048
	recording := func() error {
		const nodes, n = 2, 2 * k
		_, err := core.Run(core.Options{Nodes: nodes, CoresPerNode: 2}, func(rt *core.Runtime) {
			g := core.AllocGlobal[float64](rt, "rec.g", n)
			lo, _ := g.OwnerRange(rt)
			far := (lo + k) % n
			for range 3 {
				rt.Do(k, func(vp *core.VP) {
					vp.GlobalPhase(func() {
						g.Read(vp, far+vp.NodeRank())
					})
				})
			}
		})
		return err
	}
	cgRun := func() error {
		_, _, err := cg.RunPPM(core.Options{Nodes: 4, CoresPerNode: 2}, cg.Params{NX: 24, NY: 24, NZ: 48, MaxIter: 20})
		return err
	}
	for _, c := range []struct {
		name  string
		run   func() error
		bound uint64
	}{
		{"cg", cgRun, 8 << 20 / 10},           // 0.8 MiB
		{"recording Do", recording, 64 << 10}, // 64 KiB
	} {
		t.Run(c.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			second := after.TotalAlloc - before.TotalAlloc
			t.Logf("the second run allocated %.2f MiB", float64(second)/(1<<20))
			if second > c.bound {
				t.Errorf("the second run allocated %d bytes, want at most %d: phase scratch was allocated again instead of drawn from the pools", second, c.bound)
			}
		})
	}
}

// poisonBytes bounds the classes TestStalePooledScratchIsInvisible fills:
// as large as any chunk, arena, merge scratch or array its programs draw
// (search's 256 KiB partitions are the largest).
const poisonBytes = 256 << 10

// emptyPools empties the process-wide pools: sync.Pools, which the
// first collection moves to their victim caches and the second frees.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// poisonPools fills the emptied pools with garbage for the run that
// follows, whose first draws (its arrays, its first phase's chunks and
// arenas) take it before a collection can.
func poisonPools() {
	emptyPools()
	core.PoisonScratchPools(poisonBytes)
}

// A pooled chunk, arena or storage slice holds whatever its last holder
// left in it: another run's, rank's or job's items. Nothing may read one
// before writing it. With every pool the phase scratch and the programs'
// arrays draw from filled with garbage ahead of each run, the lane
// program still matches its goldens everywhere TestLaneHandOverGolden
// runs it, and cg and search give the same bits and counters, on Run and
// on a 2-rank loopback mesh, as runs that drew from emptied pools.
func TestStalePooledScratchIsInvisible(t *testing.T) {
	t.Setenv("PPM_PLAN_CACHE", "") // warm doRuns record and replay plans
	core.CheckLaneHandOver(t, poisonPools)

	cgPrm := cg.Params{NX: 12, NY: 12, NZ: 24, MaxIter: 8}
	srPrm := search.Params{N: 1 << 16, K: 1024, Seed: 7}
	progs := map[string]func(run core.Runner, o core.Options) (string, error){
		"cg": func(run core.Runner, o core.Options) (string, error) {
			res, _, err := cg.RunPPMOn(run, o, cgPrm)
			if err != nil || res == nil || res.X == nil {
				return "", err
			}
			h := fnv.New64a()
			for _, v := range res.X {
				fmt.Fprintf(h, "%x ", math.Float64bits(v))
			}
			return fmt.Sprintf("iters %d residual %#x x %#x", res.Iters, math.Float64bits(res.Residual), h.Sum64()), nil
		},
		"search": func(run core.Runner, o core.Options) (string, error) {
			ranks, _, err := search.RunPPMOn(run, o, srPrm)
			return fmt.Sprint(ranks), err
		},
	}
	for name, prog := range progs {
		for _, mesh := range []bool{false, true} {
			var outs [2]string
			for i, before := range []func(){emptyPools, poisonPools} {
				before()
				outs[i] = runScratchProg(t, mesh, prog)
			}
			if outs[0] != outs[1] {
				t.Errorf("%s (mesh %v): a run over poisoned pools differs from one over empty pools:\n%.300s\nwant\n%.300s", name, mesh, outs[1], outs[0])
			}
		}
	}
}

// runScratchProg runs prog on 2 simulated nodes, or on a 2-rank loopback
// mesh, and renders what it returns with every node's counters: all of
// them on the simulator, the program's and the plan cache's on the mesh
// (its wire counters depend on timing).
func runScratchProg(t *testing.T, mesh bool, prog func(run core.Runner, o core.Options) (string, error)) string {
	t.Helper()
	const nodes = 2
	o := core.Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic()}
	if !mesh {
		var rep *core.Report
		out, err := prog(func(o core.Options, p func(rt *core.Runtime)) (*core.Report, error) {
			var err error
			rep, err = core.Run(o, p)
			return rep, err
		}, o)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\nmakespan %#x stats %+v", out, math.Float64bits(rep.Makespan().Seconds()), rep.PerNode)
	}
	dir := t.TempDir()
	outs := make([]string, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := dist.Connect(dist.Config{Rank: r, Nodes: nodes, RendezvousDir: dir})
			if err != nil {
				errs[r] = err
				return
			}
			defer eng.Close()
			var rep *core.Report
			out, err := prog(func(o core.Options, p func(rt *core.Runtime)) (*core.Report, error) {
				var err error
				rep, err = core.RunDist(o, eng, p)
				return rep, err
			}, o)
			if errs[r] = err; err == nil {
				s := rep.PerNode[r]
				outs[r] = fmt.Sprintf("%s\nstats %+v plans %+v", out, s.Program(), s.PlanCache)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs[0] + "\n" + outs[1]
}
