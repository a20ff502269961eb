package dist

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ppm/internal/core"
	"ppm/internal/wire"
)

// strictProg makes every kind of update meet every other on elements some
// rank owns and the others reach remotely, and on a node array: over two
// global phases of a 3-node, 30-element array (10 per node), with 2 VPs
// per node.
func strictProg(rt *core.Runtime) {
	g := core.AllocGlobal[float64](rt, "g", 30)
	a := core.AllocNode[int64](rt, "a", 4)
	for it := 0; it < 2; it++ {
		rt.Do(2, func(vp *core.VP) {
			node, r := vp.Node(), vp.NodeRank()
			v := float64(1 + vp.GlobalRank())
			vp.GlobalPhase(func() {
				if r == 0 {
					g.Write(vp, 0, v) // Write/Write across nodes: local to node 0
				} else {
					g.Add(vp, 5+it, v) // Add/Add across nodes: no conflict
				}
				g.Write(vp, 11, v) // Write/Write within and across nodes
				if r == 0 {
					g.Write(vp, 22, v) // Write/Add: the writes and the adds
				} else {
					g.Add(vp, 22, v)
				}
				// Each node's own partition, from its two VPs only.
				lo := 10 * node
				g.WriteBlock(vp, lo+7, []float64{v, v})
				a.Write(vp, r, int64(v)) // disjoint: no conflict
				a.Add(vp, 3, int64(v))   // Add/Add: no conflict
				if it == 1 && r == 1 {
					a.Write(vp, 3, int64(v)) // Write/Add in the node array
				}
			})
		})
	}
}

// sortedConflicts orders conflicts by destination node, array and index;
// each conflict's writers keep their apply order.
func sortedConflicts(cs []core.WriteConflict) []core.WriteConflict {
	cs = slices.Clone(cs)
	slices.SortFunc(cs, func(x, y core.WriteConflict) int {
		return cmp.Or(cmp.Compare(x.Node, y.Node), strings.Compare(x.Array, y.Array), cmp.Compare(x.Index, y.Index))
	})
	return cs
}

// TestStrictConflictsMatchSimulator holds the mesh's strict apply against
// the simulator's: the union of every rank's Report.Conflicts, writer
// attribution and order included, is the simulator's list, whichever
// commit codec carries the remote runs.
func TestStrictConflictsMatchSimulator(t *testing.T) {
	const nodes = 3
	opt := core.Options{Nodes: nodes, CoresPerNode: 2, StrictWrites: true}
	srep, err := core.Run(opt, strictProg)
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Fatalf("simulator: err = %v, want a strict-mode violation", err)
	}
	want := sortedConflicts(srep.Conflicts)
	// The program must reach both apply paths: a conflict with a writer on
	// another node (a remote run) and one in the node array.
	var remote, nodeArray bool
	for _, c := range want {
		nodeArray = nodeArray || c.Array == "a"
		for _, w := range c.Writers {
			remote = remote || w.Node != c.Node
		}
	}
	if !remote || !nodeArray {
		t.Fatalf("simulator conflicts miss a path (remote writer %v, node array %v):%s", remote, nodeArray, fmtConflicts(want))
	}
	for _, tc := range []struct {
		name  string
		codec wire.Codec
	}{{"raw", wire.CodecRaw}, {"delta", wire.CodecDelta}} {
		t.Run(tc.name, func(t *testing.T) {
			reps := make([]*core.Report, nodes)
			errs := runMeshCfg(t, nodes, func(_ int, c *Config) { c.Codec = tc.codec }, func(rank int, eng *Engine) error {
				rep, err := core.RunDist(opt, eng, strictProg)
				reps[rank] = rep
				return err
			})
			var got []core.WriteConflict
			for rank, rep := range reps {
				if rep == nil {
					t.Fatalf("rank %d: no report: %v", rank, errs[rank])
				}
				if len(rep.Conflicts) > 0 && (errs[rank] == nil || !strings.Contains(errs[rank].Error(), "conflicting writes")) {
					t.Errorf("rank %d: %d conflicts but err = %v", rank, len(rep.Conflicts), errs[rank])
				}
				for _, c := range rep.Conflicts {
					if c.Node != rank {
						t.Errorf("rank %d reports a conflict on node %d: %v", rank, c.Node, c)
					}
				}
				got = append(got, rep.Conflicts...)
			}
			if got = sortedConflicts(got); !reflect.DeepEqual(got, want) {
				t.Errorf("mesh conflicts differ from the simulator's:\n mesh %v\n  sim %v", fmtConflicts(got), fmtConflicts(want))
			}
		})
	}
}

func fmtConflicts(cs []core.WriteConflict) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "\n  node %d: %v", c.Node, c)
	}
	return b.String()
}

// findingsProg makes both kinds of hazard StrictWrites finds besides
// conflicts, on every rank of 3: stale scalar and block reads of a
// Global, of elements the rank owns and of elements the next rank owns
// (fetched), stale reads of a node array, over two Dos of a global and a
// node phase each; and in the second Do's node phase a write through a
// retained Local slice of each array, to elements no VP reads.
func findingsProg(rt *core.Runtime) {
	g := core.AllocGlobal[float64](rt, "g", 30)
	a := core.AllocNode[int64](rt, "a", 4)
	part, inst := g.Local(rt), a.Local(rt)
	for it := 0; it < 2; it++ {
		rt.Do(2, func(vp *core.VP) {
			node, r := vp.Node(), vp.NodeRank()
			vp.GlobalPhase(func() {
				i := (10*(node+1) + r) % 30
				g.Write(vp, i, 1)
				_ = g.Read(vp, i)
				lo := 10*node + 4 + r
				g.Add(vp, lo, 2)
				buf := make([]float64, 3)
				g.ReadBlock(vp, lo-1, lo+2, buf)
				g.ReadBlock(vp, i, i+2, buf)
			})
			vp.NodePhase(func() {
				a.Add(vp, 2+r, 1)
				_ = a.Read(vp, 2+r)
				if it == 1 && r == 1 {
					part[9], inst[0] = 5, 7
				}
			})
		})
	}
}

// TestStrictFindingsMatchSimulator holds the mesh's stale reads and
// writes around the commit against the simulator's: every rank's
// Report.Hazards merged is the simulator's rows, with
// the plan cache on and off, and every rank fails on its own write
// around the commit.
func TestStrictFindingsMatchSimulator(t *testing.T) {
	const nodes = 3
	opt := core.Options{Nodes: nodes, CoresPerNode: 2, StrictWrites: true}
	srep, err := core.Run(opt, findingsProg)
	if err == nil || !strings.Contains(err.Error(), "changed outside the commit") {
		t.Fatalf("simulator: err = %v, want a write around the commit", err)
	}
	want := srep.Hazards
	var kinds [3]int
	for _, h := range want {
		kinds[h.Kind] += h.Count
	}
	if kinds[core.StaleRead] == 0 || kinds[core.LocalWrite] != 2*nodes {
		t.Fatalf("simulator finds %d stale reads and %d writes around the commit:%s", kinds[core.StaleRead], kinds[core.LocalWrite], fmtHazards(want))
	}
	for _, cache := range []string{"0", "1"} {
		t.Run("plancache="+cache, func(t *testing.T) {
			t.Setenv("PPM_PLAN_CACHE", cache)
			reps := make([]*core.Report, nodes)
			errs := runMeshCfg(t, nodes, nil, func(rank int, eng *Engine) error {
				rep, err := core.RunDist(opt, eng, findingsProg)
				reps[rank] = rep
				return err
			})
			var got []core.Hazard
			for rank, rep := range reps {
				if rep == nil {
					t.Fatalf("rank %d: no report: %v", rank, errs[rank])
				}
				if errs[rank] == nil || !strings.Contains(errs[rank].Error(), fmt.Sprintf("on node %d changed outside the commit", rank)) {
					t.Errorf("rank %d: err = %v, want its own write around the commit", rank, errs[rank])
				}
				for _, h := range rep.Hazards {
					for _, e := range h.Examples {
						if e.Node != rank {
							t.Errorf("rank %d reports a hazard of node %d: %v", rank, e.Node, h)
						}
					}
				}
				got = core.MergeHazards(got, rep.Hazards)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("mesh hazards differ from the simulator's:\n mesh%s\n  sim%s", fmtHazards(got), fmtHazards(want))
			}
		})
	}
}

func fmtHazards(hs []core.Hazard) string {
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "\n  %v", h)
	}
	return b.String()
}
