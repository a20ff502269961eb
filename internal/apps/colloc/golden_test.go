package colloc_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ppm/internal/apps/colloc"
	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// The bits colloc's programs produce: the matrix (hashed), the modeled
// makespan and every node's or process's counters. The host may hold a
// rank's sparsity pattern any way it likes; none of these may move.
type collocBits struct {
	makespan uint64
	stats    uint64 // hash of PerNode (PPM) or PerProc, clocks and NICs (MPI)
}

// Two workloads: the small one the package's tests use, and one whose
// 155 rows deal unevenly over 2 and 3 ranks.
var goldenCases = []struct {
	prm    colloc.Params
	matrix uint64
	sim    [4]collocBits // PPM on the simulator, by node count - 1
	mpi    [2]collocBits // MPI at (2 nodes, 2 cores) and (3, 1)
	mesh   uint64        // 2-rank loopback mesh: the ranks' own counters
}{
	{colloc.Params{Levels: 4, M0: 6, Delta: 2.5}, 0xce63fe59e1d8fab7, [4]collocBits{
		{0x3f442c18b5c9318b, 0xbe4ab8c3bb992a95},
		{0x3f436842b0b42b3e, 0xddb36ef08aa50a7e},
		{0x3f48c56b260b23ee, 0xdbdd173e9e221dc8},
		{0x3f481129b8c27cd8, 0x5d49794e6bff3ab4},
	}, [2]collocBits{
		{0x3f48d828a088204d, 0x641fb76e4ce5b3ba},
		{0x3f4496d78f0f43b3, 0xdaa527331871e21d},
	}, 0x08e8767540ec3e1f},
	{colloc.Params{Levels: 5, M0: 5, Delta: 3}, 0x53907f28925cbb94, [4]collocBits{
		{0x3f5af84642c19f64, 0xefedd755faf8121f},
		{0x3f5346722761ebd7, 0x0db3bfe2215596dc},
		{0x3f54132795c53114, 0x007423d39e04147d},
		{0x3f52522ac619e484, 0x7f7a2f10caac9461},
	}, [2]collocBits{
		{0x3f560cac60c6944f, 0x76a44f3ed4d0028d},
		{0x3f595f60ded4eba6, 0xfa2151893d3e31a6},
	}, 0x2138c2f2a0d6d86f},
}

var mpiShapes = [2][2]int{{2, 2}, {3, 1}}

func hashMatrix(m *colloc.Matrix) uint64 {
	h := fnv.New64a()
	for i, row := range m.Rows {
		fmt.Fprintf(h, "row %d:", i)
		for _, e := range row {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(e.Col)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.Val)))
		}
	}
	return h.Sum64()
}

// hashStats hashes the program's counters: the real-wire, plan-cache and
// rescale counters, which measure the host, stay out.
func hashStats(per []core.NodeStats) uint64 {
	h := fnv.New64a()
	for _, s := range per {
		fmt.Fprintf(h, "%+v\n", s.Program())
	}
	return h.Sum64()
}

func hashMPI(rep *cluster.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", rep.PerProc, rep.FinalClocks, rep.NICs)
	return h.Sum64()
}

func TestPPMGoldenBits(t *testing.T) {
	for _, c := range goldenCases {
		for _, parallel := range []bool{false, true} {
			for nodes := 1; nodes <= 4; nodes++ {
				opt := core.Options{Nodes: nodes, Machine: machine.Franklin(), Parallel: parallel}
				m, rep, err := colloc.RunPPM(opt, c.prm)
				if err != nil {
					t.Fatalf("%+v nodes=%d parallel=%v: %v", c.prm, nodes, parallel, err)
				}
				if got := hashMatrix(m); got != c.matrix {
					t.Errorf("%+v nodes=%d parallel=%v: matrix hash %#x, want %#x", c.prm, nodes, parallel, got, c.matrix)
				}
				got := collocBits{math.Float64bits(rep.Makespan().Seconds()), hashStats(rep.PerNode)}
				if want := c.sim[nodes-1]; got != want {
					t.Errorf("%+v nodes=%d parallel=%v: bits %#v, want %#v", c.prm, nodes, parallel, got, want)
				}
			}
		}
	}
}

func TestMPIGoldenBits(t *testing.T) {
	for _, c := range goldenCases {
		for k, shape := range mpiShapes {
			m, rep, err := colloc.RunMPI(colloc.MPIOptions{Nodes: shape[0], CoresPerNode: shape[1], Machine: machine.Franklin()}, c.prm)
			if err != nil {
				t.Fatalf("%+v shape %v: %v", c.prm, shape, err)
			}
			if got := hashMatrix(m); got != c.matrix {
				t.Errorf("%+v shape %v: matrix hash %#x, want %#x", c.prm, shape, got, c.matrix)
			}
			got := collocBits{math.Float64bits(rep.Makespan.Seconds()), hashMPI(rep)}
			if want := c.mpi[k]; got != want {
				t.Errorf("%+v shape %v: bits %#v, want %#v", c.prm, shape, got, want)
			}
		}
	}
}

// TestPPMGoldenBitsMesh runs the PPM program on a 2-rank loopback mesh:
// each rank fills its own rows, which together must be the simulator's
// matrix, and each rank's counters are pinned.
func TestPPMGoldenBitsMesh(t *testing.T) {
	const nodes = 2
	for _, c := range goldenCases {
		dir := t.TempDir()
		mats := make([]*colloc.Matrix, nodes)
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
				mats[r], rep, errs[r] = colloc.RunPPMOn(run, core.Options{Nodes: nodes, Machine: machine.Franklin()}, c.prm)
				if rep != nil {
					stats[r] = rep.PerNode[r]
				}
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%+v rank %d: %v", c.prm, r, err)
			}
		}
		merged := &colloc.Matrix{N: mats[0].N, Rows: make([][]colloc.Entry, mats[0].N)}
		for i := range merged.Rows {
			merged.Rows[i] = mats[i%nodes].Rows[i]
		}
		if got := hashMatrix(merged); got != c.matrix {
			t.Errorf("%+v: mesh matrix hash %#x, want the simulator's %#x", c.prm, got, c.matrix)
		}
		if got := hashStats(stats); got != c.mesh {
			t.Errorf("%+v: mesh counters hash %#x, want %#x", c.prm, got, c.mesh)
		}
	}
}

// TestRunAllocPin: a rank holds its rows' sparsity pattern as one run
// per (row, column level), not an entry per nonzero. A Figure-2 run on
// four nodes, after a first run filled the runtime's pools, allocated
// 9.6 MiB when the pattern was a 40-byte slot per nonzero and a
// per-level index list; it allocates 4.2 MiB with runs.
func TestRunAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	p := colloc.Params{}.WithDefaults()
	o := core.Options{Nodes: 4, Machine: machine.Franklin()}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := colloc.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := colloc.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second := after.TotalAlloc - before.TotalAlloc
	t.Logf("the second run allocated %.2f MiB", float64(second)/(1<<20))
	const bound = 6 << 20
	if second >= bound {
		t.Errorf("the second run allocated %d bytes, want less than %d: the pattern is held per entry again", second, bound)
	}
}

// TestRunScratchAllocPin: a VP rank's phase scratch, the table row of
// phase A and the table run of phase B, is made once a run, not in every
// level. A second Figure-2 run on four nodes made 13.7 thousand
// allocations when each VP made both afresh in each of the 7 levels (128
// VPs a node), and 10.5 to 11 thousand with one buffer of each a rank.
func TestRunScratchAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	p := colloc.Params{}.WithDefaults()
	o := core.Options{Nodes: 4, Machine: machine.Franklin()}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := colloc.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := colloc.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second := after.Mallocs - before.Mallocs
	t.Logf("the second run made %d allocations", second)
	const bound = 12300
	if second >= bound {
		t.Errorf("the second run made %d allocations, want fewer than %d: a VP makes its phase scratch in every level again", second, bound)
	}
}
