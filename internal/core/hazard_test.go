package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// findingsProg makes both kinds of hazard on every node of a 3-node run,
// in global and node phases and over two Dos: stale scalar and block
// reads of a Global, of elements this node owns and of elements the next
// node owns, stale reads of a node array, a read before a write (not
// stale), a second read of one stale element (reported once), and in the
// second Do's node phase a write through a retained Local slice of each
// array. No element another VP reads is written around the commit.
func findingsProg(rt *Runtime) {
	g := AllocGlobal[float64](rt, "g", 30)
	a := AllocNode[int64](rt, "a", 4)
	part, inst := g.Local(rt), a.Local(rt)
	for it := 0; it < 2; it++ {
		rt.Do(2, func(vp *VP) {
			node, r := vp.Node(), vp.NodeRank()
			vp.GlobalPhase(func() {
				i := (10*(node+1) + r) % 30 // the next node's
				g.Write(vp, i, 1)
				_ = g.Read(vp, i)
				_ = g.Read(vp, i)
				lo := 10*node + 4 + r
				g.Add(vp, lo, 2)
				buf := make([]float64, 3)
				g.ReadBlock(vp, lo-1, lo+2, buf)
				_ = a.Read(vp, r)
				a.Write(vp, r, 3)
			})
			vp.NodePhase(func() {
				a.Add(vp, 2+r, 1)
				buf := make([]int64, 2)
				a.ReadBlock(vp, 2, 4, buf)
				if it == 1 && r == 1 {
					part[9], inst[0] = 5, 7
				}
			})
		})
	}
}

// oneHazard is a single hazard as a row of one.
func oneHazard(kind HazardKind, arr string, phase int64, node, vp, idx int) Hazard {
	return Hazard{Kind: kind, Array: arr, Phase: phase, Count: 1, Examples: []HazardSite{{Node: node, VP: vp, Index: idx}}}
}

// wantFindings is findingsProg's rows on nodes nodes: its hazards one by
// one, merged.
func wantFindings(nodes int) []Hazard {
	var out []Hazard
	for node := 0; node < nodes; node++ {
		for it := int64(0); it < 2; it++ {
			for r := 0; r < 2; r++ {
				out = append(out, oneHazard(StaleRead, "g", 2*it+1, node, r, (10*(node+1)+r)%30),
					oneHazard(StaleRead, "g", 2*it+1, node, r, 10*node+4+r))
			}
			for r := 0; r < 2; r++ {
				out = append(out, oneHazard(StaleRead, "a", 2*it+2, node, r, 2+r))
			}
		}
		out = append(out, oneHazard(LocalWrite, "g", 4, node, -1, 10*node+9), oneHazard(LocalWrite, "a", 4, node, -1, 0))
	}
	return MergeHazards(out)
}

func fmtHazards(hs []Hazard) string {
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "\n  %v", h)
	}
	return b.String()
}

// TestStrictFindingsMatchSimulator: the sequential simulator finds
// exactly findingsProg's hazards, in order, and fails the run on a write
// around the commit; the parallel scheduler and both plan-cache settings
// find the same list and fail with the same error; and without
// StrictWrites nothing is found.
func TestStrictFindingsMatchSimulator(t *testing.T) {
	const nodes = 3
	want := wantFindings(nodes)
	var wantErr string
	for _, tc := range []struct {
		name      string
		parallel  bool
		planCache string
	}{{"sequential", false, "1"}, {"parallel", true, "1"}, {"nocache", false, "0"}, {"parallel-nocache", true, "0"}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("PPM_PLAN_CACHE", tc.planCache)
			o := Options{Nodes: nodes, CoresPerNode: 2, StrictWrites: true, Parallel: tc.parallel}
			rep, err := Run(o, findingsProg)
			if err == nil || !strings.Contains(err.Error(), "changed outside the commit of phase 4") {
				t.Fatalf("err = %v, want a write around the commit of phase 4", err)
			}
			if wantErr == "" {
				wantErr = err.Error()
			} else if err.Error() != wantErr {
				t.Errorf("err = %v, want %s", err, wantErr)
			}
			if len(rep.Conflicts) != 0 {
				t.Errorf("conflicts: %v", rep.Conflicts)
			}
			if !reflect.DeepEqual(rep.Hazards, want) {
				t.Errorf("hazards:%s\nwant:%s", fmtHazards(rep.Hazards), fmtHazards(want))
			}
			// The first row by hand: phase 1's stale reads of g, 4 a node,
			// the first four of them node 0's in (VP, index) order.
			first := Hazard{Kind: StaleRead, Array: "g", Phase: 1, Count: 4 * nodes,
				Examples: []HazardSite{{0, 0, 4}, {0, 0, 10}, {0, 1, 5}, {0, 1, 11}}}
			if len(rep.Hazards) != 6 || !reflect.DeepEqual(rep.Hazards[0], first) {
				t.Errorf("%d rows, the first %v; want 6, the first %v", len(rep.Hazards), rep.Hazards[0], first)
			}
		})
	}
	rep, err := Run(Options{Nodes: nodes, CoresPerNode: 2}, findingsProg)
	if err != nil || len(rep.Hazards) != 0 {
		t.Errorf("without StrictWrites: err = %v, hazards:%s", err, fmtHazards(rep.Hazards))
	}
}

// TestStrictLocalWriteOutsidePhases: a write through a retained slice
// before a VP's first phase is found at that phase's commit, and one in a
// Do with no phase at all at the end of the Do. (A write between two
// phases races with the first one's commit, which may take it for
// committed state.)
func TestStrictLocalWriteOutsidePhases(t *testing.T) {
	o := opts(1)
	o.StrictWrites = true
	rep, err := Run(o, func(rt *Runtime) {
		a := AllocNode[float64](rt, "a", 8)
		inst := a.Local(rt)
		rt.Do(8, func(vp *VP) {
			inst[vp.NodeRank()] = 1
			vp.NodePhase(func() {})
		})
		inst[0] = 2 // node level: allowed
		rt.Do(1, func(vp *VP) { inst[1] = 3 })
	})
	if err == nil || !strings.Contains(err.Error(), "a[0] on node 0 changed outside the commit of phase 1") {
		t.Errorf("err = %v", err)
	}
	// Both Dos' writes are found at phase sequence number 1: one row.
	want := []Hazard{{Kind: LocalWrite, Array: "a", Phase: 1, Count: 9,
		Examples: []HazardSite{{0, -1, 0}, {0, -1, 1}, {0, -1, 1}, {0, -1, 2}}}}
	if !reflect.DeepEqual(rep.Hazards, want) {
		t.Errorf("local writes:%s\nwant:%s", fmtHazards(rep.Hazards), fmtHazards(want))
	}
}

// TestStrictNaNIsNoLocalWrite: an element that holds NaN is unchanged to
// the write-around-the-commit check.
func TestStrictNaNIsNoLocalWrite(t *testing.T) {
	o := opts(2)
	o.StrictWrites = true
	rep := mustRun(t, o, func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "g", 4)
		part := g.Local(rt)
		for i := range part {
			part[i] = float64(i) * nan()
		}
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() { _ = g.Read(vp, 0) })
		})
	})
	if len(rep.Hazards) != 0 {
		t.Errorf("hazards:%s", fmtHazards(rep.Hazards))
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
