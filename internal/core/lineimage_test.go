package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/rng"
	"ppm/internal/wire"
)

// A mesh rank keeps its partition in place and what it fetched in lines
// (Global.lines). These tests hold the access paths over that layout
// against the simulator, where the array is one slice, and pin who
// allocates a line and when.

// probe is one access of the equivalence program: ReadBlock of [lo, hi),
// or Read of lo.
type probe struct {
	lo, hi int
	scalar bool
}

// probeProg reads every node's probes twice over (two phases: the second
// finds the lines of the first in place and the cover reset), its two VPs
// taking alternate probes, and leaves what VP v of node r read in
// out[2*r+v].
func probeProg[T Elem](n int, probes [][]probe, out [][]T) func(rt *Runtime) {
	return func(rt *Runtime) {
		g := AllocGlobal[T](rt, "eq", n)
		lo, _ := g.OwnerRange(rt)
		for i, l := 0, g.Local(rt); i < len(l); i++ {
			l[i] = T(7*(lo+i) + 3)
		}
		for phase := 0; phase < 2; phase++ {
			rt.Do(2, func(vp *VP) {
				vp.GlobalPhase(func() {
					mine := &out[2*vp.Node()+vp.NodeRank()]
					for j, p := range probes[vp.Node()] {
						if j%2 != vp.NodeRank() {
							continue
						}
						if p.scalar {
							*mine = append(*mine, g.Read(vp, p.lo))
							continue
						}
						buf := make([]T, p.hi-p.lo)
						g.ReadBlock(vp, p.lo, p.hi, buf)
						*mine = append(*mine, buf...)
					}
				})
			})
		}
	}
}

// checkReadEquivalence runs one seeded probe set for element type T on the
// simulator and on an in-process mesh and compares every value read and
// the read counters.
func checkReadEquivalence[T Elem](t *testing.T, r *rng.RNG, nodes int) {
	t.Helper()
	line := fetchLineBytes / mp.SizeOf[T]()
	n := 5*line/2 + 7 // no partition bound of 2 or 3 nodes is a line bound
	bnd := testGlobal[T](&globalState{nodes: nodes}, n).bnd
	// Every place the layout changes: partition bounds and line bounds.
	edges := append([]int(nil), bnd...)
	for e := line; e < n; e += line {
		edges = append(edges, e)
	}
	clip := func(lo, hi int) probe { return probe{lo: max(lo, 0), hi: min(max(hi, 0), n)} }
	probes := make([][]probe, nodes)
	for node := range probes {
		ps := []probe{clip(0, n)}
		for _, e := range edges {
			ps = append(ps, clip(e-2, e+2), clip(e-1, e), clip(e, e+1), clip(e-3, e), clip(e, e+3))
			for _, i := range []int{e - 1, e} {
				if i >= 0 && i < n {
					ps = append(ps, probe{lo: i, hi: i + 1, scalar: true})
				}
			}
		}
		for k := 0; k < 40; k++ {
			lo := r.Intn(n)
			switch r.Intn(3) {
			case 0:
				ps = append(ps, probe{lo: lo, hi: lo + 1, scalar: true})
			case 1:
				ps = append(ps, clip(lo, lo+1+r.Intn(4))) // cg's column runs
			default:
				ps = append(ps, clip(lo, lo+1+r.Intn(3*line/2)))
			}
		}
		probes[node] = ps
	}

	opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic()}
	want := make([][]T, 2*nodes)
	simRep := mustRun(t, opt, probeProg(n, probes, want))

	got := make([][]T, 2*nodes)
	mesh := newLoopMesh(nodes)
	reps := make([]*Report, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := 0; rank < nodes; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[rank], errs[rank] = RunDist(opt, mesh.engs[rank], probeProg(n, probes, got))
		}()
	}
	wg.Wait()
	where := fmt.Sprintf("es=%d nodes=%d n=%d", mp.SizeOf[T](), nodes, n)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("%s: rank %d: %v", where, rank, err)
		}
		g, w := reps[rank].PerNode[rank], simRep.PerNode[rank]
		if g.SharedReads != w.SharedReads || g.RemoteReadElems != w.RemoteReadElems || g.BytesOut != w.BytesOut || g.BundlesOut != w.BundlesOut {
			t.Errorf("%s: rank %d counted reads %d remote %d bytes %d bundles %d, the simulator %d %d %d %d", where, rank,
				g.SharedReads, g.RemoteReadElems, g.BytesOut, g.BundlesOut, w.SharedReads, w.RemoteReadElems, w.BytesOut, w.BundlesOut)
		}
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			t.Fatalf("%s: VP %d of node %d read %d elements, the simulator %d", where, v%2, v/2, len(got[v]), len(want[v]))
		}
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				t.Fatalf("%s: VP %d of node %d: element %d of what it read is %v, the simulator's %v", where, v%2, v/2, i, got[v][i], want[v][i])
			}
		}
	}
}

func TestMeshReadsMatchSimulatorAcrossLayoutBounds(t *testing.T) {
	r := rng.New(23)
	for _, nodes := range []int{2, 3} {
		checkReadEquivalence[uint8](t, r, nodes)
		checkReadEquivalence[int32](t, r, nodes)
		checkReadEquivalence[float64](t, r, nodes)
	}
}

// Two owners' ranges of one array share the line their partition bound
// cuts, and a warm phase open towards both installs them concurrently:
// the line is allocated once, under the cover mutex, and both halves land
// in it. Part of `make race` at -cpu 1,2,4.
func TestBoundaryLineSharedByTwoOwners(t *testing.T) {
	eng := &cannedEngine{loopEngine: newLoopMesh(3).engs[0], reply: map[int][]byte{}}
	p := &phasePlan{fcov: [][]wire.ReadRange{nil, {{Array: 0, Lo: 1300, Hi: 1400}}, {{Array: 0, Lo: 1400, Hi: 1500}}}}
	left, right := make([]float64, 100), make([]float64, 100)
	for i := range left {
		left[i], right[i] = float64(1300+i), float64(1400+i)
	}
	eng.reply[1] = mp.AppendElems(nil, left)
	eng.reply[2] = mp.AppendElems(nil, right)
	for round := 0; round < 200; round++ {
		// Bounds at 700 and 1400: line 2, [1024:1536), is cut by the second.
		gs := &globalState{dist: eng, nodes: 3}
		a := testGlobal[float64](gs, 2100)
		d := &doRun{rt: &Runtime{gs: gs}}
		d.prefetchPlan(p)
		if a.footprint().Lines != 1 || len(a.lines[2]) != 512 {
			t.Fatalf("round %d: %d lines exist (line 2 holds %d elements), want line 2 alone", round, a.footprint().Lines, len(a.lines[2]))
		}
		for i := 1300; i < 1500; i++ {
			if a.held(i) != float64(i) {
				t.Fatalf("round %d: element %d landed as %v", round, i, a.held(i))
			}
		}
		if got := fmt.Sprint(a.dcov); got != "[{1300 1500}]" {
			t.Fatalf("round %d: cover %s", round, got)
		}
	}
}

// A phase that reads what an earlier phase read finds its lines in place:
// the cover is reset between phases, the image is not, and no line is
// allocated twice.
func TestSecondPhaseAllocatesNoLine(t *testing.T) {
	const n, phases = 4096, 3 // rank 1 owns [2048:4096), lines 4 to 7
	mesh := newLoopMesh(2)
	var seen [phases][]*float64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Nodes: 2, CoresPerNode: 2, Machine: machine.Generic()}
			_, errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
				g := AllocGlobal[float64](rt, "again", n)
				buf := make([]float64, 600)
				for ph := 0; ph < phases; ph++ {
					rt.Do(1, func(vp *VP) {
						vp.GlobalPhase(func() {
							if vp.Node() == 0 {
								g.ReadBlock(vp, 2100, 2700, buf) // lines 4 and 5
								g.Read(vp, 3600)                 // line 7
							}
						})
					})
					for _, l := range g.lines {
						if rt.NodeID() == 0 && l != nil {
							seen[ph] = append(seen[ph], &l[0])
						}
					}
				}
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if len(seen[0]) != 3 {
		t.Fatalf("the first phase left %d lines, want 4, 5 and 7", len(seen[0]))
	}
	for ph := 1; ph < phases; ph++ {
		if fmt.Sprint(seen[ph]) != fmt.Sprint(seen[0]) {
			t.Errorf("phase %d holds lines at %v, the first phase left them at %v", ph, seen[ph], seen[0])
		}
	}
	// Every phase fetched afresh what the reset cover forgot: two demand
	// misses in the cold phase, one plan prefetch in each warm one.
	if got := len(mesh.engs[0].reqs); got != phases+1 {
		t.Errorf("rank 0 sent %d requests over %d phases, want %d", got, phases, phases+1)
	}
}

// A commit run must lie in the receiving rank's partition: that is all a
// mesh rank stores. A peer's run aimed anywhere else, and a checkpoint
// block of somebody else's partition, are protocol errors naming the run.
func TestCommitRunOutsidePartitionIsFatal(t *testing.T) {
	mesh := newLoopMesh(2)
	g := testGlobal[float64](&globalState{dist: mesh.engs[0], nodes: 2}, 32) // rank 0 owns [0:16)
	apply := func(lo int, vals ...float64) error {
		stream := wire.AppendBlockHeader(nil, g.id, 1)
		stream = wire.AppendRunHeader(stream, wire.RunHeader{Lo: lo, N: len(vals), Writer: 1 << 32})
		rd := wire.NewCommitReader(mp.AppendElems(stream, vals))
		if _, nRuns, err := rd.Block(); err != nil || nRuns != 1 {
			t.Fatalf("hand-built stream: %d runs, err %v", nRuns, err)
		}
		_, _, err := g.applyWireRuns(0, false, 1, rd, 1)
		return err
	}
	if err := apply(14, 1, 2); err != nil || g.base[15] != 2 {
		t.Errorf("run [14:16) inside the partition: err %v, element 15 = %v", err, g.base[15])
	}
	for _, lo := range []int{15, 16, 20, 31, -1} {
		err := apply(lo, 5, 6)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("commit run for a0[%d:%d) outside node 0's partition [0:16)", lo, lo+2)) {
			t.Errorf("run [%d:%d): err = %v, want a refusal naming the run and the partition", lo, lo+2, err)
		}
	}
	if g.base[15] != 2 {
		t.Errorf("a refused run wrote element 15 = %v", g.base[15])
	}

	// Rank 1's checkpoint of the same array is a block for [16:32).
	theirs := AllocGlobal[float64](&Runtime{gs: &globalState{dist: mesh.engs[1], nodes: 2}, node: 1}, "a0", 32)
	rd := wire.NewCommitReader(theirs.encodeCheckpoint(1, nil))
	_, nRuns, err := rd.Block()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.restoreCheckpoint(0, rd, nRuns); err == nil || !strings.Contains(err.Error(), "a0[16:32) outside node 0's partition") {
		t.Errorf("restoring rank 1's block on rank 0: err = %v", err)
	}
}
