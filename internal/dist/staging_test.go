package dist

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ppm/internal/core"
	"ppm/internal/rng"
)

// Write staging (each VP's buffered runs and each array's per-peer wire
// buffers) is drawn from process-wide pools keyed by element type and
// handed back when a run ends, so one job's buffers serve the next job's
// arrays. These tests pin what that must not change, the bits, and what
// it buys, the allocation of a repeated commit-heavy job.

// stagingShape sizes the commit-heavy test programs: a Global of n
// elements, vps VPs a node, phases global phases, adds single-element
// Adds per VP per phase, and block-element WriteBlocks.
type stagingShape struct {
	n, vps, phases, adds, block int
}

// sparseAddProg has each VP scatter-add single elements, at strides of 2
// to 5, into the next rank's partition; a block read of that partition
// feeds the values, so a wrong byte on the wire diverges the output.
func sparseAddProg(sh stagingShape, seed uint64, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "acc", sh.n)
		for it := 0; it < sh.phases; it++ {
			iter := it
			rt.Do(sh.vps, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					rlo, rhi := core.ChunkRange(sh.n, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
					probe := make([]float64, 16)
					g.ReadBlock(vp, rlo, rlo+len(probe), probe)
					sum := probe[0] + probe[len(probe)-1]
					r := rng.New(seed).Split(uint64(iter*64 + vp.GlobalRank()))
					i := rlo + vp.NodeRank()*(rhi-rlo)/sh.vps
					for j := 0; j < sh.adds && i < rhi; j++ {
						g.Add(vp, i, sum*1e-9+r.NormFloat64())
						i += 2 + int(r.Uint64()%4)
					}
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// denseWriteProg has each VP write one block into every other rank's
// partition per phase, at a slot of its own that rotates with the phase.
func denseWriteProg(sh stagingShape, seed uint64, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "acc", sh.n)
		for it := 0; it < sh.phases; it++ {
			iter := it
			rt.Do(sh.vps, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					nodes := vp.Nodes()
					r := rng.New(seed).Split(uint64(iter*64 + vp.GlobalRank()))
					block := make([]float64, sh.block)
					for tgt := 0; tgt < nodes; tgt++ {
						if tgt == vp.Node() {
							continue
						}
						rlo, rhi := core.ChunkRange(sh.n, nodes, tgt)
						sum := g.Read(vp, rlo)
						for i := range block {
							block[i] = sum*1e-9 + r.NormFloat64()
						}
						slot := ((vp.Node()-tgt-1+nodes)%nodes)*sh.vps + vp.NodeRank()
						nblk := (rhi - rlo) / sh.block
						g.WriteBlock(vp, rlo+(slot+iter*(nodes-1)*sh.vps)%nblk*sh.block, block)
					}
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// nodeCountProg stages int64 writes: a node phase in which every VP adds
// into a node-shared int64 array (contiguous and scattered), then a global
// phase that folds it into the next rank's partition of a float64 Global.
func nodeCountProg(sh stagingShape, seed uint64, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		cnt := core.AllocNode[int64](rt, "cnt", 64)
		g := core.AllocGlobal[float64](rt, "fold", sh.n)
		for it := 0; it < sh.phases; it++ {
			iter := it
			rt.Do(sh.vps, func(vp *core.VP) {
				r := rng.New(seed).Split(uint64(iter*64 + vp.GlobalRank()))
				vp.NodePhase(func() {
					for j := 0; j < 8; j++ {
						cnt.Add(vp, (vp.NodeRank()*8+j)%cnt.Len(), int64(r.Uint64()%1000))
					}
					cnt.Add(vp, int(r.Uint64()%uint64(cnt.Len())), 1)
				})
				vp.GlobalPhase(func() {
					rlo, rhi := core.ChunkRange(sh.n, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
					for j := vp.NodeRank(); j < cnt.Len() && rlo+j < rhi; j += sh.vps {
						g.Write(vp, rlo+j, float64(cnt.Read(vp, j))+float64(iter))
					}
				})
			})
		}
		local := cnt.Local(rt)
		o := append([]float64(nil), g.Local(rt)...)
		for _, c := range local {
			o = append(o, float64(c))
		}
		out[rt.NodeID()] = o
	}
}

type stagingProg func(sh stagingShape, seed uint64, out [][]float64) func(rt *core.Runtime)

// runWarm runs prog on this rank under ws, keyed by key, and returns the
// rank's output and counters.
func runWarm(rank int, eng *Engine, ws *core.WarmSession, key string, opt core.Options, prog func(rt *core.Runtime)) (core.NodeStats, error) {
	ws.SetKey(key)
	opt.Warm = ws
	rep, err := core.RunDist(opt, eng, prog)
	if err != nil {
		return core.NodeStats{}, err
	}
	return rep.PerNode[rank], nil
}

// TestFleetPlanCacheStagingAcrossJobs alternates three jobs with
// different keys on one 3-rank mesh, a warm session per rank: float64
// sparse adds, float64 dense block writes, and int64 node-array adds
// folded into a Global. Every job's buffers go back to the pools its
// successor draws from, of its own element type or another's; each run
// must still match the simulator bit for bit and counter for counter.
// (make plancache-equiv runs it with the plan cache forced off, where the
// sessions hold nothing and the release happens at run end, and on.)
func TestFleetPlanCacheStagingAcrossJobs(t *testing.T) {
	const nodes = 3
	sh := stagingShape{n: 3 * 2048, vps: 3, phases: 3, adds: 150, block: 256}
	jobs := []struct {
		key  string
		prog stagingProg
	}{
		{"sparse", sparseAddProg},
		{"dense", denseWriteProg},
		{"node", nodeCountProg},
	}
	opt := distOpt(nodes)
	type ref struct {
		out   [][]float64
		stats []core.NodeStats
	}
	refs := make([]ref, len(jobs))
	for i, j := range jobs {
		out := make([][]float64, nodes)
		rep, err := core.Run(opt, j.prog(sh, 7, out))
		if err != nil {
			t.Fatalf("%s: simulator: %v", j.key, err)
		}
		refs[i] = ref{out, rep.PerNode}
	}
	const rounds = 3
	outs := make([][][]float64, rounds*len(jobs))
	stats := make([][]core.NodeStats, rounds*len(jobs))
	for i := range outs {
		outs[i] = make([][]float64, nodes)
		stats[i] = make([]core.NodeStats, nodes)
	}
	runMesh(t, nodes, func(rank int, eng *Engine) error {
		ws := core.NewWarmSession()
		for i := range outs {
			j := jobs[i%len(jobs)]
			s, err := runWarm(rank, eng, ws, j.key, opt, j.prog(sh, 7, outs[i]))
			if err != nil {
				return fmt.Errorf("run %d (%s): %w", i, j.key, err)
			}
			stats[i][rank] = s
		}
		return nil
	})
	for i := range outs {
		j, want := jobs[i%len(jobs)], refs[i%len(jobs)]
		for n := 0; n < nodes; n++ {
			sameF64(t, fmt.Sprintf("run %d (%s) node %d", i, j.key, n), outs[i][n], want.out[n])
		}
		samePerNode(t, stats[i], want.stats)
	}
}

// TestSecondJobStagingAllocPin runs a mesh-commits-shaped job (sparse adds
// and dense block writes on 3 ranks x 4 VPs, each program cold and then
// warm under its own key) twice on one in-process mesh with the collector
// off, and pins what the second job allocates. The first job leaves its
// write buffers, wire staging and array storage in the pools; the second
// must find them there instead of regrowing them from empty in every
// program run. With staging kept per array the second job allocated
// 40.0 MiB; with staging drawn from the pools, 22.9-23.6 MiB; with the
// arrays' partitions and fetched lines drawn from them too, 14.7-15.1 MiB
// (go1.24, linux/amd64). What remains is the outputs, the programs' own
// scratch and each run's bookkeeping.
func TestSecondJobStagingAllocPin(t *testing.T) {
	const bound = 18 << 20
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	t.Setenv("PPM_PLAN_CACHE", "") // the warm half of each pair is the point
	const nodes = 3
	sh := stagingShape{n: 1 << 18, vps: 4, phases: 8, adds: 2000, block: 4096}
	progs := []struct {
		key  string
		prog stagingProg
	}{{"sparse", sparseAddProg}, {"dense", denseWriteProg}}
	opt := core.Options{Nodes: nodes, CoresPerNode: 2}

	var ready, done sync.WaitGroup
	step := make([]chan struct{}, nodes)
	for r := range step {
		step[r] = make(chan struct{})
	}
	var second uint64
	ready.Add(nodes)
	go func() {
		ready.Wait()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		job := func() {
			done.Add(nodes)
			for r := range step {
				step[r] <- struct{}{}
			}
			done.Wait()
		}
		job()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job()
		runtime.ReadMemStats(&after)
		second = after.TotalAlloc - before.TotalAlloc
		for r := range step {
			close(step[r])
		}
	}()
	runMeshWith(t, nodes, quietMesh, func(rank int, eng *Engine) error {
		ws := core.NewWarmSession()
		ready.Done()
		var firstErr error
		for range step[rank] {
			// A rank keeps answering the driver after a failure, so that
			// the driver never waits on it; the failure still fails the test.
			for _, p := range progs {
				for pass := 0; pass < 2 && firstErr == nil; pass++ {
					out := make([][]float64, nodes)
					if _, err := runWarm(rank, eng, ws, p.key, opt, p.prog(sh, 3, out)); err != nil {
						firstErr = fmt.Errorf("%s pass %d: %w", p.key, pass, err)
					}
				}
			}
			done.Done()
		}
		return firstErr
	})
	t.Logf("the second job allocated %.2f MiB", float64(second)/(1<<20))
	if second > bound {
		t.Errorf("the second job allocated %d bytes, want at most %d: write staging or array storage was allocated again instead of coming from the pools", second, bound)
	}
}

// blockSourceProg hands every block writer a source that it overwrites
// right after the call: each VP writes and adds a block into its own
// rank's partition and the other rank's of a Global, then into its
// rank's Node array. The output is each rank's partition followed by its
// node instance.
func blockSourceProg(out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		const part = 16
		g := core.AllocGlobal[float64](rt, "g", 2*part)
		nd := core.AllocNode[float64](rt, "nd", 8)
		rt.Do(2, func(vp *core.VP) {
			src := make([]float64, 2)
			put := func(op func(*core.VP, int, []float64), lo int, v float64) {
				src[0], src[1] = v, v+1
				op(vp, lo, src)
				src[0], src[1] = -1, -1
			}
			k, id := vp.NodeRank(), float64(100*(vp.GlobalRank()+1))
			vp.GlobalPhase(func() {
				for p := 0; p < 2; p++ {
					lo := p*part + k*4
					if p != vp.Node() {
						lo += 8
					}
					put(g.WriteBlock, lo, id)
					put(g.AddBlock, lo+2, id+10)
				}
			})
			vp.NodePhase(func() {
				put(nd.WriteBlock, k*4, id+20)
				put(nd.AddBlock, k*4+2, id+30)
			})
		})
		out[rt.NodeID()] = append(append([]float64(nil), g.Local(rt)...), nd.Local(rt)...)
	}
}

// TestBlockSourceReusableAtOnce pins the contract WriteBlock and AddBlock
// document: the source is copied before the call returns, so a caller
// that overwrites it at once still commits the original values, on the
// simulator and on a 2-rank mesh alike.
func TestBlockSourceReusableAtOnce(t *testing.T) {
	const nodes = 2
	block := func(gr, off int) []float64 {
		id := float64(100 * (gr + 1))
		return []float64{id + float64(off), id + float64(off) + 1, id + float64(off) + 10, id + float64(off) + 11}
	}
	want := make([][]float64, nodes)
	for r := range want {
		// The partition: rank r's own VPs, then the other rank's.
		for _, w := range []int{r, 1 - r} {
			for k := 0; k < 2; k++ {
				want[r] = append(want[r], block(2*w+k, 0)...)
			}
		}
		for k := 0; k < 2; k++ {
			want[r] = append(want[r], block(2*r+k, 20)...)
		}
	}
	opt := distOpt(nodes)
	sim := make([][]float64, nodes)
	if _, err := core.Run(opt, blockSourceProg(sim)); err != nil {
		t.Fatalf("simulator: %v", err)
	}
	mesh := make([][]float64, nodes)
	runMesh(t, nodes, func(rank int, eng *Engine) error {
		_, err := core.RunDist(opt, eng, blockSourceProg(mesh))
		return err
	})
	for r := 0; r < nodes; r++ {
		sameF64(t, fmt.Sprintf("simulator rank %d", r), sim[r], want[r])
		sameF64(t, fmt.Sprintf("mesh rank %d", r), mesh[r], want[r])
	}
}
