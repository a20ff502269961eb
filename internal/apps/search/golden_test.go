package search_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/machine"
)

// The bits the search program produces: every node's ranks (hashed), the
// modeled makespan and every node's counters. How a rank fills its
// partition of A is the host's business; none of these may move.
type searchBits struct {
	ranks    uint64
	makespan uint64
	stats    uint64 // hash of PerNode, substrate fields zeroed
}

// N = 1000 is no multiple of 3 nodes; N = 1 leaves every node but the
// first an empty partition, the 2-rank mesh's second rank too.
var goldenCases = []struct {
	prm  search.Params
	sim  [4]searchBits // by node count - 1
	mesh uint64        // 2-rank loopback mesh: the ranks' own counters
}{
	{search.Params{N: 1000, K: 64, Seed: 5}, [4]searchBits{
		{0x320e0ebb0b699979, 0x3ef7db215caa5e46, 0x18d049820b6663cf},
		{0x8aaedce49898fe00, 0x3f0b78b5ef7d8562, 0xf4d50ce07e0e7069},
		{0x8ab6cec69bc2e8c0, 0x3f1649bea7cf8d89, 0x62eea30242d042ce},
		{0x329c18c6ad5ae68d, 0x3f18083e0d43beec, 0xee41d3462252c475},
	}, 0xfe3c6b491444cb65},
	{search.Params{N: 1, K: 5, Seed: 9}, [4]searchBits{
		{0x11b8ce66df81ad2d, 0x3ed29c9488da0888, 0xa4ef7393edbdb655},
		{0x2f5b56e5cf7dbba1, 0x3f08bbcbbf0a7f81, 0x06a1ee055de13875},
		{0x3020c089ba8b0053, 0x3f135db4615df274, 0x65d3e6ea42aefed5},
		{0x338dbee86496154d, 0x3f135db4615df274, 0xb5ef4279553f1cf5},
	}, 0xca465fb044ed219a},
}

func hashRanks(ranks [][]int64) uint64 {
	h := fnv.New64a()
	for node, rs := range ranks {
		fmt.Fprintf(h, "node %d:", node)
		for _, r := range rs {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(r)))
		}
	}
	return h.Sum64()
}

func hashStats(per []core.NodeStats) uint64 {
	h := fnv.New64a()
	for _, s := range per {
		fmt.Fprintf(h, "%+v\n", s.Program())
	}
	return h.Sum64()
}

func TestPPMGoldenBits(t *testing.T) {
	for _, c := range goldenCases {
		for _, parallel := range []bool{false, true} {
			for nodes := 1; nodes <= 4; nodes++ {
				opt := core.Options{Nodes: nodes, Machine: machine.Franklin(), Parallel: parallel}
				ranks, rep, err := search.RunPPM(opt, c.prm)
				if err != nil {
					t.Fatalf("%+v nodes=%d parallel=%v: %v", c.prm, nodes, parallel, err)
				}
				got := searchBits{hashRanks(ranks), math.Float64bits(rep.Makespan().Seconds()), hashStats(rep.PerNode)}
				if want := c.sim[nodes-1]; got != want {
					t.Errorf("%+v nodes=%d parallel=%v: bits %#v, want %#v", c.prm, nodes, parallel, got, want)
				}
			}
		}
	}
}

// TestPPMGoldenBitsMesh runs the program on a 2-rank loopback mesh: each
// rank fills only its own ranks, which together must be the simulator's,
// and each rank's counters are pinned.
func TestPPMGoldenBitsMesh(t *testing.T) {
	const nodes = 2
	for _, c := range goldenCases {
		dir := t.TempDir()
		ranks := make([][]int64, nodes)
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
				out, rep, err := search.RunPPMOn(run, core.Options{Nodes: nodes, Machine: machine.Franklin()}, c.prm)
				if errs[r] = err; err != nil {
					return
				}
				ranks[r], stats[r] = out[r], rep.PerNode[r]
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%+v rank %d: %v", c.prm, r, err)
			}
		}
		if got, want := hashRanks(ranks), c.sim[nodes-1].ranks; got != want {
			t.Errorf("%+v: mesh ranks hash %#x, want the simulator's %#x", c.prm, got, want)
		}
		if got := hashStats(stats); got != c.mesh {
			t.Errorf("%+v: mesh counters hash %#x, want %#x", c.prm, got, c.mesh)
		}
	}
}

// TestRunAllocPin: each node fills its own partition of A straight into
// the array. A run of 2^20 elements over four nodes, after a first run
// filled the runtime's pools, allocated 8.2 MiB when every run built the
// whole 8 MiB array first; it allocates 0.2 MiB now.
func TestRunAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	p := search.Params{N: 1 << 20, K: 64, Seed: 3}
	o := core.Options{Nodes: 4, Machine: machine.Franklin()}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := search.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := search.RunPPM(o, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second := after.TotalAlloc - before.TotalAlloc
	t.Logf("the second run allocated %.2f MiB", float64(second)/(1<<20))
	const bound = 4 << 20
	if second >= bound {
		t.Errorf("the second run allocated %d bytes, want less than %d: the whole array is built again", second, bound)
	}
}
