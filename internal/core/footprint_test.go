package core_test

import (
	"fmt"
	"sync"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/partition"
	"ppm/internal/sparse"
)

// A mesh rank stores its partition of a Global, the lines it fetched of
// the others', and its own instance of a Node array: nothing per rank of
// the mesh, nothing per element it never read. These tests run cg over a
// real loopback mesh, every rank a goroutine of this process (the shape a
// `-procs`-packed host has), and count what each rank ends up holding.

const lineF64 = core.FetchLineBytes / 8 // elements of a float64 line

// cgFootprints runs prm on nodes in-process ranks and returns what each
// holds when its program ends. The runner is dist.RunApp's own (RunDist
// over the rank's engine) with the count taken before the run returns.
func cgFootprints(t *testing.T, nodes int, prm cg.Params) [][]core.ArrayFootprint {
	t.Helper()
	dir := t.TempDir()
	fps := make([][]core.ArrayFootprint, nodes)
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
				return core.RunDist(o, eng, func(rt *core.Runtime) {
					prog(rt)
					fps[r] = core.Footprints(rt)
				})
			}
			_, _, errs[r] = cg.RunPPMOn(run, core.Options{Nodes: nodes, CoresPerNode: 2}, prm)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return fps
}

// haloLines counts the float64 lines that hold a column of rows [lo, hi)
// of the stencil lying outside them: what cg's phases read of cg.p from
// other ranks.
func haloLines(prm cg.Params, lo, hi int) int {
	lines := map[int]bool{}
	var runs []sparse.ColRun
	for g := lo; g < hi; g++ {
		runs, _ = sparse.Stencil27RowRuns(prm.NX, prm.NY, prm.NZ, g, runs[:0])
		for _, cr := range runs {
			for c := cr.Col; c < cr.Col+cr.N; c++ {
				if c < lo || c >= hi {
					lines[c/lineF64] = true
				}
			}
		}
	}
	return len(lines)
}

func TestMeshRankFootprint(t *testing.T) {
	// 2880 unknowns on 4 ranks: partitions of 720, so no partition bound
	// sits on a line bound and line 1, [512:1024), straddles ranks 0 and 1.
	const nodes = 4
	prm := cg.Params{NX: 12, NY: 12, NZ: 20, MaxIter: 4}
	n := prm.N()
	part := partition.NewBlock(n, nodes)
	wantHalo := []int{1, 3, 2, 2} // pinned; haloLines must agree
	for r, fp := range cgFootprints(t, nodes, prm) {
		lo, hi := part.Range(r)
		byName := map[string]core.ArrayFootprint{}
		for _, a := range fp {
			byName[a.Name] = a
			switch {
			case a.Node && (a.Instances != 1 || a.Held != a.N):
				t.Errorf("rank %d: Node %s has %d instances holding %d elements, want its own %d alone", r, a.Name, a.Instances, a.Held, a.N)
			case !a.Node && a.Held != hi-lo:
				t.Errorf("rank %d: Global %s stores %d elements in place, want its partition of %d", r, a.Name, a.Held, hi-lo)
			}
		}
		if len(byName) != 5 {
			t.Fatalf("rank %d: arrays %v, want cg's five", r, fp)
		}
		// cg.p is read through its halo, four phases over: the lines that
		// exist are the lines the halo touches, each allocated once.
		if got := byName["cg.p"].Lines; got != wantHalo[r] || got != haloLines(prm, lo, hi) {
			t.Errorf("rank %d: cg.p holds %d lines, want %d (the stencil's halo touches %d)", r, got, wantHalo[r], haloLines(prm, lo, hi))
		}
		// cg.r is never read remotely; cg.x only by rank 0's final At
		// walk, which brings in every line past its own partition.
		wantX := 0
		if r == 0 {
			wantX = (n+lineF64-1)/lineF64 - hi/lineF64
		}
		if byName["cg.r"].Lines != 0 || byName["cg.x"].Lines != wantX {
			t.Errorf("rank %d: cg.r holds %d lines and cg.x %d, want 0 and %d", r, byName["cg.r"].Lines, byName["cg.x"].Lines, wantX)
		}
	}
}

// Three logical ranks hosted by one process, as on rescale-smoke's
// surviving host: what the host keeps resident is the three partitions,
// the lines, and three Node instances, where a whole-array image per rank
// cost it 3 x n for every Global.
func TestPackedHostFootprint(t *testing.T) {
	const nodes = 3
	prm := cg.Params{NX: 12, NY: 12, NZ: 20, MaxIter: 4}
	n := prm.N()
	var globals, lines, nodeElems int
	for _, fp := range cgFootprints(t, nodes, prm) {
		for _, a := range fp {
			if a.Node {
				nodeElems += a.Held
			} else {
				globals += a.Held
				lines += a.LineElems
			}
		}
	}
	// Three Globals of n in partitions; cg.w (n/3+1) and cg.acc (1) per
	// rank; lines: cg.p's halos (2 + 3 + 1 whole lines around the bounds
	// at 960 and 1920) and rank 0's walk over cg.x (lines 1 to 5, the last
	// clipped to n).
	got := fmt.Sprint(globals, nodeElems, lines)
	want := fmt.Sprint(3*n, 3*(n/3+1+1), 6*lineF64+4*lineF64+(n-5*lineF64))
	if got != want {
		t.Errorf("host holds (partition, node, line) elements %s, want %s", got, want)
	}
	if whole := 3 * 3 * n; globals+lines >= whole {
		t.Errorf("host holds %d elements of Globals, no less than the %d of a whole-array image per rank", globals+lines, whole)
	}
}
