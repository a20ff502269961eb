package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ppm/internal/machine"
	"ppm/internal/partition"
	"ppm/internal/wire"
)

// The access paths of Global decide local or remote from a table of
// partition bounds and only then ask partition.Block for an owner. These
// tests hold every such decision against Block.Owner and Block.Range
// themselves, over the (n, parts) space the partition package's own
// quick-check walks, which includes n < parts and empty partitions.

// fastpathRig is one Global[float64] of n elements over parts nodes with
// a one-VP doRun per node, its VP holding a lane, built by hand so that a
// single test process can stand on every node of a 37-node layout
// without running one.
type fastpathRig struct {
	g    *Global[float64]
	part partition.Block
	vps  []*VP
}

func newFastpathRig(n, parts int) *fastpathRig {
	gs := &globalState{mach: machine.Generic(), nodes: parts, cores: 1, stats: make([]NodeStats, parts)}
	rig := &fastpathRig{part: partition.NewBlock(n, parts)}
	for node := 0; node < parts; node++ {
		rt := &Runtime{gs: gs, node: node}
		rig.g = AllocGlobal[float64](rt, "fp", n)
		d := newDoRun(rt, 1)
		vp := &d.vps[0]
		vp.lane = d.takeLane()
		rig.vps = append(rig.vps, vp)
	}
	return rig
}

// enter puts node's VP inside a fresh phase of the given kind, its lane
// holding no read (what it buffered stays until flush).
func (rig *fastpathRig) enter(node int, kind phaseKind) *VP {
	vp := rig.vps[node]
	vp.fast, vp.phaseKind = true, kind
	l := vp.lane
	l.keys.release(&vp.d.keyPool)
	l.runs.release(&vp.d.runPool)
	l.mark = 0
	return vp
}

// runs returns the block-read runs node's VP recorded for the rig's
// array.
func (rig *fastpathRig) runs(node int) []intRun {
	var out []intRun
	for _, r := range rig.vps[node].lane.runs.cur {
		if r.lo.array() == rig.g.id {
			out = append(out, intRun{lo: r.lo.idx(), hi: r.hi})
		}
	}
	return out
}

// refRuns is what the division-based ReadBlock recorded for [lo, hi)
// read on node: one noteRemoteRun per remote owner stretch.
func (rig *fastpathRig) refRuns(node, lo, hi int) []intRun {
	ref := rig.enter(node, phaseGlobal)
	for s := lo; s < hi; {
		owner := rig.part.Owner(s)
		_, ohi := rig.part.Range(owner)
		e := min(hi, ohi)
		if owner != node {
			ref.noteRemoteRun(rig.g.id, s, e, owner, rig.g.es)
		}
		s = e
	}
	return rig.runs(node)
}

// panicText runs f and returns what it panicked with ("" for a normal
// return).
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// flush commits what node's VP has buffered, as a global-phase commit
// would, and returns (and empties) what it holds for every destination:
// node's stage, and the run headers of the stream for every other node.
func (rig *fastpathRig) flush(t *testing.T, node int) [][]stageRec[float64] {
	t.Helper()
	vp := rig.vps[node]
	parts := len(rig.vps)
	tally := sendTally{elems: make([]int64, parts), bytes: make([]int64, parts)}
	l := vp.lane
	for i := range l.touch.cur {
		tc := &l.touch.cur[i]
		b := l.bufs[tc.buf]
		tc.chunk, tc.lo, tc.hi = b.endPart()
		if err := b.flushGlobal(vp.d, &tally, 1, tc); err != nil {
			t.Fatal(err)
		}
		b.reset()
	}
	l.touch.release(&vp.d.touchPool)
	out := make([][]stageRec[float64], parts)
	for dst := range out {
		if dst == node {
			out[dst] = append(out[dst], rig.g.stage[node]...)
			rig.g.stage[node] = rig.g.stage[node][:0]
			continue
		}
		rd := wire.NewCommitReader(rig.g.encodeStagedWire(node, dst, nil))
		for rd.More() {
			_, nRuns, err := rd.Block()
			for i := 0; i < nRuns && err == nil; i++ {
				var h wire.RunHeader
				if h, _, err = rd.Run(rig.g.es); err == nil {
					out[dst] = append(out[dst], stageRec[float64]{lo: h.Lo, n: h.N, add: h.Add, writer: h.Writer})
				}
			}
			if err != nil {
				t.Fatalf("stream from node %d to node %d: %v", node, dst, err)
			}
		}
	}
	return out
}

// checkSplit verifies that a buffered write of [lo, hi) from node was
// staged as one run per owner, cut at Block.Range's bounds.
func (rig *fastpathRig) checkSplit(t *testing.T, node, lo, hi int, op string) bool {
	t.Helper()
	ok := true
	for dst, staged := range rig.flush(t, node) {
		plo, phi := rig.part.Range(dst)
		slo, shi := max(lo, plo), min(hi, phi)
		if slo >= shi {
			if len(staged) != 0 {
				t.Errorf("node %d %s: staged %d runs for node %d, which owns none of [%d:%d)", node, op, len(staged), dst, lo, hi)
				ok = false
			}
			continue
		}
		if len(staged) != 1 || staged[0].lo != slo || staged[0].n != shi-slo {
			t.Errorf("node %d %s: node %d staged %+v, want one run [%d:%d)", node, op, dst, staged, slo, shi)
			ok = false
		}
	}
	return ok
}

func TestFastPathAgreesWithBlock(t *testing.T) {
	check := func(nRaw uint16, pRaw uint8, seed uint16) bool {
		n := int(nRaw%500) + 1
		parts := int(pRaw%37) + 1
		rig := newFastpathRig(n, parts)
		g, part := rig.g, rig.part
		ok := true
		fail := func(format string, args ...any) {
			ok = false
			t.Errorf("n=%d parts=%d: %s", n, parts, fmt.Sprintf(format, args...))
		}
		remoteMsg := func(op string, i, node int) string {
			return fmt.Sprintf("core: Global(%q).%s(%d): remote access (owner %d) inside a node phase on node %d",
				"fp", op, i, part.Owner(i), node)
		}
		for node := 0; node < parts && ok; node++ {
			// Scalar accesses in a global phase: a Read logs its key exactly
			// when Block.Owner says the index is remote, and the Writes of
			// every index, coalesced into one run, split at Block.Range.
			for i := 0; i < n; i++ {
				vp := rig.enter(node, phaseGlobal)
				g.Read(vp, i)
				var want []readKey
				if part.Owner(i) != node {
					want = []readKey{makeReadKey(g.id, i)}
				}
				if !reflect.DeepEqual(append([]readKey(nil), vp.lane.keys.cur...), want) {
					fail("node %d Read(%d): logged %v, want %v (owner %d)", node, i, vp.lane.keys.cur, want, part.Owner(i))
				}
				g.Write(vp, i, 1)
			}
			ok = rig.checkSplit(t, node, 0, n, "Write of every index") && ok

			// The same in a node phase: remote indices panic with the
			// owner Block.Owner names, local ones pass. Every partition
			// edge and its neighbours, and a stride of the rest.
			for i := 0; i < n; i++ {
				if plo, phi := part.Range(part.Owner(i)); i%17 != 0 && i > plo+1 && i < phi-2 {
					continue
				}
				vp := rig.enter(node, phaseNode)
				wantRead, wantWrite := "", ""
				if part.Owner(i) != node {
					wantRead, wantWrite = remoteMsg("Read", i, node), remoteMsg("Write", i, node)
				}
				if msg := panicText(func() { g.Read(vp, i) }); msg != wantRead {
					fail("node %d node-phase Read(%d): panic %q, want %q", node, i, msg, wantRead)
				}
				if msg := panicText(func() { g.Write(vp, i, 1) }); msg != wantWrite {
					fail("node %d node-phase Write(%d): panic %q, want %q", node, i, msg, wantWrite)
				}
			}
			rig.flush(t, node)

			// Block accesses: a few blocks per node, chosen to start and
			// end anywhere, so they stay local, leave on one side, or
			// straddle several owners (and empty partitions between them).
			for b := 0; b < 6; b++ {
				x := int(seed) + 7919*b + 104729*node
				lo := x % n
				hi := lo + 1 + (x/n)%(n-lo)
				src := make([]float64, hi-lo)
				op := fmt.Sprintf("block [%d:%d)", lo, hi)

				want := rig.refRuns(node, lo, hi)
				vp := rig.enter(node, phaseGlobal)
				g.ReadBlock(vp, lo, hi, src)
				if got := rig.runs(node); !reflect.DeepEqual(got, want) {
					fail("node %d ReadBlock %s: runs %v, want %v", node, op, got, want)
				}
				g.WriteBlock(vp, lo, src)
				ok = rig.checkSplit(t, node, lo, hi, "WriteBlock "+op) && ok

				// In a node phase both panic at the block's first remote
				// element, as the old owner loop found it.
				wantRead, wantWrite := "", ""
				for s := lo; s < hi; s++ {
					if part.Owner(s) != node {
						wantRead, wantWrite = remoteMsg("Read", s, node), remoteMsg("Write", s, node)
						break
					}
				}
				vp = rig.enter(node, phaseNode)
				if msg := panicText(func() { g.ReadBlock(vp, lo, hi, src) }); msg != wantRead {
					fail("node %d node-phase ReadBlock %s: panic %q, want %q", node, op, msg, wantRead)
				}
				if msg := panicText(func() { g.WriteBlock(vp, lo, src) }); msg != wantWrite {
					fail("node %d node-phase WriteBlock %s: panic %q, want %q", node, op, msg, wantWrite)
				}
				rig.flush(t, node)
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// The corners quick.Check may not draw: more parts than items, and a
	// single part.
	for _, c := range [][2]uint16{{1, 4}, {0, 36}, {16, 0}} {
		check(c[0], uint8(c[1]), 3)
	}
}

// A block that straddles three owners records exactly the remote
// stretches on either side of the reader's own partition.
func TestReadBlockAcrossThreeOwners(t *testing.T) {
	rig := newFastpathRig(10, 3) // [0,4) [4,7) [7,10)
	vp := rig.enter(1, phaseGlobal)
	rig.g.ReadBlock(vp, 2, 9, make([]float64, 7))
	want := []intRun{{lo: 2, hi: 4}, {lo: 7, hi: 9}}
	if got := rig.runs(1); !reflect.DeepEqual(got, want) {
		t.Errorf("node 1 ReadBlock[2:9) recorded %v, want %v", got, want)
	}
	vp = rig.enter(0, phaseGlobal)
	rig.g.ReadBlock(vp, 2, 9, make([]float64, 7))
	want = []intRun{{lo: 4, hi: 9}} // two remote owners, one contiguous run
	if got := rig.runs(0); !reflect.DeepEqual(got, want) {
		t.Errorf("node 0 ReadBlock[2:9) recorded %v, want %v", got, want)
	}
}

// Every access with an index outside the array names the array, the
// operation and the valid range, scalar reads included.
func TestOutOfRangeAccessesNameArrayAndOperation(t *testing.T) {
	cases := []struct {
		want string
		f    func(vp *VP, g *Global[float64], a *Node[float64])
	}{
		{`core: Global("x").Read(12): index out of range [0,10)`, func(vp *VP, g *Global[float64], a *Node[float64]) { g.Read(vp, 12) }},
		{`core: Global("x").Read(-1): index out of range [0,10)`, func(vp *VP, g *Global[float64], a *Node[float64]) { g.Read(vp, -1) }},
		{`core: Global("x").Write(12): index out of range [0,10)`, func(vp *VP, g *Global[float64], a *Node[float64]) { g.Write(vp, 12, 1) }},
		{`core: Node("y").Read(6): index out of range [0,6)`, func(vp *VP, g *Global[float64], a *Node[float64]) { a.Read(vp, 6) }},
		{`core: Node("y").Read(-2): index out of range [0,6)`, func(vp *VP, g *Global[float64], a *Node[float64]) { a.Read(vp, -2) }},
		{`core: Node("y").Write(6): index out of range [0,6)`, func(vp *VP, g *Global[float64], a *Node[float64]) { a.Write(vp, 6, 1) }},
	}
	for _, c := range cases {
		for _, global := range []bool{true, false} {
			_, err := Run(opts(2), func(rt *Runtime) {
				g := AllocGlobal[float64](rt, "x", 10)
				a := AllocNode[float64](rt, "y", 6)
				rt.Do(4, func(vp *VP) {
					body := func() {
						if vp.Node() == 1 && vp.NodeRank() == 3 {
							c.f(vp, g, a)
						}
					}
					if global {
						vp.GlobalPhase(body)
					} else {
						vp.NodePhase(body)
					}
				})
			})
			want := "core: VP 3 on node 1 panicked: " + c.want
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("global=%v: err = %v\nwant it to contain %q", global, err, want)
			}
		}
	}
}
