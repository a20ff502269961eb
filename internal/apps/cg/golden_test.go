package cg_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// The bits cg's PPM program produces: the solution (hashed), the final
// residual, the iteration count, the modeled makespan and every node's
// counters. The host may build the operator any way it likes; none of
// these may move.
type cgBits struct {
	x, residual uint64
	iters       int
	makespan    uint64
	stats       uint64 // hash of PerNode, substrate fields zeroed
}

// Two grids: a general one, and a thin one (nx <= 3, ny = 2) where a
// row's x-runs span whole lines and merge across lines and planes into
// runs of up to 18 columns.
var goldenCases = []struct {
	prm  cg.Params
	sim  [4]cgBits // by node count - 1
	mesh uint64    // 2-rank loopback mesh: the ranks' own counters
}{
	{cg.Params{NX: 7, NY: 5, NZ: 9, MaxIter: 12}, [4]cgBits{
		{0xe38146d6c11d9788, 0x3f02ae25c42954bb, 12, 0x3f4ac0a0d6a88e26, 0x2d135d0852bb6b90},
		{0xb3e41ffe97cc463a, 0x3f02ae25c42954ea, 12, 0x3f50678180a1f168, 0x551bb01cf8f47760},
		{0xab8bbcef1381c2eb, 0x3f02ae25c42954d8, 12, 0x3f599e0e27056a5c, 0xebd6dfbad6b245e0},
		{0x25fd59e6e73c8fa7, 0x3f02ae25c42954e3, 12, 0x3f58732426da5a90, 0x0558f029dbbf6f25},
	}, 0xd7cf3c99d50c640c},
	{cg.Params{NX: 3, NY: 2, NZ: 30, MaxIter: 8}, [4]cgBits{
		{0x973f48d525ab742a, 0x3f415a12b31e63d7, 8, 0x3f3172b8a3bf81d5, 0x9aca89d7c9922805},
		{0x63639a9559e6c747, 0x3f415a12b31e63c1, 8, 0x3f42cca0d7fc55ce, 0xcedc357337cbdde5},
		{0x4b2b503b89c50ec5, 0x3f415a12b31e63b0, 8, 0x3f513682008417b4, 0x45e077e0baf4761e},
		{0x70dbcdd5d81f610a, 0x3f415a12b31e63ba, 8, 0x3f506f57f7d0901e, 0xd146e78864685231},
	}, 0x70b95d50eb73c735},
}

func hashF64(v []float64) uint64 {
	h := fnv.New64a()
	for _, f := range v {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
	}
	return h.Sum64()
}

// hashStats hashes the program's counters: virtual time stays in (the
// simulator models it; a mesh rank reports zero), the real-wire,
// plan-cache and rescale counters, which measure the host, do not.
func hashStats(per []core.NodeStats) uint64 {
	h := fnv.New64a()
	for _, s := range per {
		fmt.Fprintf(h, "%+v\n", s.Program())
	}
	return h.Sum64()
}

func bitsOf(res *cg.Result, rep *core.Report) cgBits {
	return cgBits{
		x:        hashF64(res.X),
		residual: math.Float64bits(res.Residual),
		iters:    res.Iters,
		makespan: math.Float64bits(rep.Makespan().Seconds()),
		stats:    hashStats(rep.PerNode),
	}
}

func TestPPMGoldenBits(t *testing.T) {
	for _, c := range goldenCases {
		for _, parallel := range []bool{false, true} {
			for nodes := 1; nodes <= 4; nodes++ {
				opt := core.Options{Nodes: nodes, Machine: machine.Franklin(), Parallel: parallel}
				res, rep, err := cg.RunPPM(opt, c.prm)
				if err != nil {
					t.Fatalf("%+v nodes=%d parallel=%v: %v", c.prm, nodes, parallel, err)
				}
				if got, want := bitsOf(res, rep), c.sim[nodes-1]; got != want {
					t.Errorf("%+v nodes=%d parallel=%v: bits %#v, want %#v", c.prm, nodes, parallel, got, want)
				}
			}
		}
	}
}

// runMesh runs cg's PPM program on a 2-rank loopback mesh and returns
// rank 0's result and both ranks' counters.
func runMesh(t *testing.T, prm cg.Params) (*cg.Result, []core.NodeStats) {
	const nodes = 2
	dir := t.TempDir()
	results := make([]*cg.Result, nodes)
	stats := make([]core.NodeStats, nodes)
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
			run := func(o core.Options, prog func(rt *core.Runtime)) (*core.Report, error) {
				return core.RunDist(o, eng, prog)
			}
			var rep *core.Report
			results[r], rep, errs[r] = cg.RunPPMOn(run, core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
			if rep != nil {
				stats[r] = rep.PerNode[r]
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%+v rank %d: %v", prm, r, err)
		}
	}
	return results[0], stats
}

func TestPPMGoldenBitsMesh(t *testing.T) {
	for _, c := range goldenCases {
		res, stats := runMesh(t, c.prm)
		want := c.sim[1]
		if hashF64(res.X) != want.x || math.Float64bits(res.Residual) != want.residual || res.Iters != want.iters {
			t.Errorf("%+v: mesh x %#x residual %#x iters %d, want the simulator's %#x %#x %d", c.prm,
				hashF64(res.X), math.Float64bits(res.Residual), res.Iters, want.x, want.residual, want.iters)
		}
		if got := hashStats(stats); got != c.mesh {
			t.Errorf("%+v: mesh counters hash %#x, want %#x", c.prm, got, c.mesh)
		}
	}
}

// A 2x2x2 grid solves exactly in one iteration. Without a Tol, cg used
// to run on into 0/0 and return NaN; every backend and the sequential
// reference now stop at the zero residual with the exact solution.
func TestZeroResidualStops(t *testing.T) {
	prm := cg.Params{NX: 2, NY: 2, NZ: 2, MaxIter: 3}
	check := func(name string, res *cg.Result) {
		t.Helper()
		if res.Residual != 0 || res.Iters != 1 {
			t.Errorf("%s: residual %v after %d iterations, want 0 after 1", name, res.Residual, res.Iters)
		}
		for i, v := range res.X {
			if v != 1 {
				t.Errorf("%s: x[%d] = %v, want 1", name, i, v)
				break
			}
		}
	}
	ref, err := cg.Solve(prm)
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", ref)
	for _, parallel := range []bool{false, true} {
		res, _, err := cg.RunPPM(core.Options{Nodes: 2, Machine: machine.Generic(), Parallel: parallel}, prm)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sim parallel=%v", parallel), res)
	}
	res, _ := runMesh(t, prm)
	check("mesh", res)
	mres, _, err := cg.RunMPI(cg.MPIOptions{Nodes: 2, Machine: machine.Generic()}, prm)
	if err != nil {
		t.Fatal(err)
	}
	check("mpi", mres)
}

// One Figure-1 run on one node allocates its vectors and the runtime's
// state, not an operator: generating the rows measured 2.0 MB where the
// stored row block and its run table made 18.2 MB. The run table alone
// (about 4 MB) would break the bound.
func TestPPMAllocPin(t *testing.T) {
	const bound = 5 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := cg.RunPPM(core.Options{Nodes: 1, Machine: machine.Franklin()}, cg.Params{}.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("one Figure-1 run allocated %d bytes, want at most %d", got, bound)
	}
}
