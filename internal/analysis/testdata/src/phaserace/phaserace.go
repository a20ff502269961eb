// Package phaserace exercises the phaserace rule: definite write
// overlaps between VP instances (including one seeded through a
// helper), provably-disjoint patterns that must stay silent, and
// non-affine indices that degrade to phaserace.possible. The guard and
// K = 1 shapes at the end are one program each, so that a test can run
// them under StrictWrites and hold their // want lines to the runtime.
package phaserace

import "ppm"

const slot = 7

func buf() []float64 { return make([]float64, 4) }

// smear writes a caller-chosen element; the overlap is only visible
// once the call-site argument is substituted into the index.
func smear(vp *ppm.VP, g *ppm.Global[float64], base int) {
	g.Write(vp, base, 2.0)
}

// scatter is deliberately non-affine (modulus of a per-VP quantity).
func scatter(vp *ppm.VP) int { return vp.NodeRank() % 5 }

func Overlaps(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 64)
	q := ppm.AllocGlobal[float64](rt, "q", 64)
	h := ppm.AllocGlobal[float64](rt, "h", 64)
	d := ppm.AllocNode[float64](rt, "d", 64)
	e := ppm.AllocGlobal[float64](rt, "e", 64)
	m := ppm.AllocGlobal2D[float64](rt, "m", 8, 8)
	s := ppm.AllocGlobal[float64](rt, "s", 64)
	bl := ppm.AllocGlobal[float64](rt, "bl", 64)
	n := ppm.AllocNode[int64](rt, "n", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			a.Write(vp, 0, 1.0)                // want `overlapping elements of a`
			smear(vp, q, 3)                    // want `overlapping elements of q`
			h.Write(vp, scatter(vp), 1.0)      // want `cannot prove VP write sets of h disjoint`
			m.Write(vp, vp.NodeRank(), 0, 1.0) // want `overlapping elements of m`
			s.Write(vp, slot, 2.0)             // want `overlapping elements of s`
			// Whatever buf() returns, every VP's block starts at 0.
			bl.WriteBlock(vp, 0, buf()) // want `overlapping elements of bl`
		})
		vp.NodePhase(func() {
			lo, hi := ppm.ChunkRange(64, vp.K(), vp.NodeRank())
			for i := lo; i < hi; i++ {
				d.Write(vp, i, 1.0) // want `overlapping elements of d`
				d.Write(vp, i+1, 0.5)
			}
			n.Write(vp, 2, 1) // want `overlapping elements of n`
		})
		vp.GlobalPhase(func() {
			// Chunking a Global by the node-local rank partitions within
			// one node but collides with the same window on every other
			// node.
			lo, hi := ppm.ChunkRange(64, vp.K(), vp.NodeRank())
			for i := lo; i < hi; i++ {
				e.Write(vp, i, 1.0) // want `overlapping elements of e`
			}
		})
	})
}

func Disjoint(rt *ppm.Runtime) {
	b := ppm.AllocGlobal[float64](rt, "b", 64)
	c := ppm.AllocNode[float64](rt, "c", 64)
	g := ppm.AllocGlobal[float64](rt, "g", 64)
	m := ppm.AllocGlobal2D[float64](rt, "m2", 64, 4)
	acc := ppm.AllocGlobal[float64](rt, "acc", 1)
	n1 := ppm.AllocNode[float64](rt, "n1", 4)
	glo, ghi := g.OwnerRange(rt)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			// Globally-ranked point writes are distinct per instance.
			b.Write(vp, vp.GlobalRank(), 1.0)
			// Row index distinguishes instances; the column may collide.
			m.Write(vp, vp.GlobalRank(), 2, 1.0)
			// Add is combining: concurrent Adds never conflict.
			acc.Add(vp, 0, 1.0)
			// Chunks of this node's owner partition: disjoint within the
			// node by the chunk split, across nodes by ownership.
			lo, hi := ppm.ChunkRange(ghi-glo, vp.K(), vp.NodeRank())
			for i := lo; i < hi; i++ {
				g.Write(vp, glo+i, 1.0)
			}
		})
		vp.NodePhase(func() {
			// Node arrays have one instance per node; the chunk split
			// alone proves the node-local writes disjoint.
			lo, hi := ppm.ChunkRange(64, vp.K(), vp.NodeRank())
			for i := lo; i < hi; i++ {
				c.Write(vp, i, 1.0)
			}
		})
	})
	// A single VP per node cannot race with itself on node state.
	rt.Do(1, func(vp *ppm.VP) {
		vp.NodePhase(func() {
			n1.Write(vp, 0, 1.0)
		})
	})
}

// ChunkElems ranges over chunk windows of an index list: disjoint when the
// list is strictly increasing (declared empty, appended range keys only),
// whether or not its capacity was reserved up front.
func ChunkElems(rt *ppm.Runtime, keep []bool) {
	v := ppm.AllocNode[float64](rt, "v", 64)
	w := ppm.AllocNode[float64](rt, "w", 64)
	mine := make([]int, 0, len(keep))
	for s, k := range keep {
		if k {
			mine = append(mine, s)
		}
	}
	twice := make([]int, len(keep))
	for s := range keep {
		twice = append(twice, s)
	}
	rt.Do(4, func(vp *ppm.VP) {
		vp.NodePhase(func() {
			lo, hi := ppm.ChunkRange(len(mine), vp.K(), vp.NodeRank())
			for _, s := range mine[lo:hi] {
				v.Write(vp, s, 1.0)
			}
			lo2, hi2 := ppm.ChunkRange(len(twice), vp.K(), vp.NodeRank())
			for _, s := range twice[lo2:hi2] {
				w.Write(vp, s, 1.0) // want `cannot prove VP write sets of w disjoint`
			}
		})
	})
}

// GuardNodeRankGlobal: one writer per node, but every node writes a[3].
func GuardNodeRankGlobal(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			if vp.NodeRank() == 0 {
				a.Write(vp, 3, 1.0) // want `overlapping elements of a`
			}
		})
	})
}

// GuardGlobalRank: one writer in the cluster.
func GuardGlobalRank(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			if vp.GlobalRank() == 0 {
				a.Write(vp, 5, 1.0)
			}
		})
	})
}

// GuardNodeRankNode: one writer per node of a node array.
func GuardNodeRankNode(rt *ppm.Runtime) {
	c := ppm.AllocNode[int64](rt, "c", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			if vp.NodeRank() == 0 {
				c.Write(vp, 2, 1)
			}
		})
	})
}

// GuardRankRange: four writers on the first node; the analyzer cannot
// count them.
func GuardRankRange(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			if vp.GlobalRank() < 4 {
				a.Write(vp, 0, 1.0) // want `cannot prove VP write sets of a disjoint`
			}
		})
	})
}

// SingleVPHelper: Do(1) reaches the phase through a helper, the shape
// `ppmc emit` gives a `do (1)`.
func SingleVPHelper(rt *ppm.Runtime) {
	c := ppm.AllocNode[int64](rt, "c", 8)
	single := func(vp *ppm.VP) {
		vp.NodePhase(func() {
			c.Write(vp, 2, 1)
		})
	}
	rt.Do(1, func(vp *ppm.VP) { single(vp) })
}

// TripRankFor: only VP 0 of each node enters the loop, once. The
// analyzer cannot count the writers of a loop whose trip count depends
// on rank.
func TripRankFor(rt *ppm.Runtime) {
	c := ppm.AllocNode[int64](rt, "c", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			for i := 0; i < 1-vp.NodeRank(); i++ {
				c.Write(vp, 2, 1) // want `cannot prove VP write sets of c disjoint`
			}
		})
	})
}

// TripRankWhile: the same through a condition-only loop stepping by K.
func TripRankWhile(rt *ppm.Runtime) {
	d := ppm.AllocNode[int64](rt, "d", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			r := vp.NodeRank()
			for r < 1 {
				d.Write(vp, 3, 1) // want `cannot prove VP write sets of d disjoint`
				r += vp.K()
			}
		})
	})
}

// TripRankVar: the same with the rank held in a declared variable.
func TripRankVar(rt *ppm.Runtime) {
	d := ppm.AllocNode[int64](rt, "d", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			var r = vp.NodeRank()
			for r < 1 {
				d.Write(vp, 3, 1) // want `cannot prove VP write sets of d disjoint`
				r++
			}
		})
	})
}

// VarThenBranch: every VP writes its own element, since K is never 1 in
// Do(4); the analyzer cannot tell which definition of z reaches.
func VarThenBranch(rt *ppm.Runtime) {
	g := ppm.AllocGlobal[float64](rt, "g", 64)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			var z = vp.GlobalRank()
			if vp.K() == 1 {
				z = 2
			}
			g.Write(vp, z, 1.0) // want `cannot prove VP write sets of g disjoint`
		})
	})
}

// Reassigned: an index variable given a second value; the definition
// that reaches each write decides its verdict.
func Reassigned(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "ra", 64)
	b := ppm.AllocGlobal[float64](rt, "rb", 64)
	c := ppm.AllocGlobal[float64](rt, "rc", 64)
	d := ppm.AllocGlobal[float64](rt, "rd", 64)
	e := ppm.AllocGlobal[float64](rt, "re", 64)
	f := ppm.AllocGlobal[float64](rt, "rf", 64)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			i := 3
			a.Write(vp, i, 1.0) // want `overlapping elements of a`
			i = vp.GlobalRank()
			b.Write(vp, i, 1.0)
			var k int
			k = vp.GlobalRank()
			d.Write(vp, k, 1.0)
			j := vp.GlobalRank()
			if vp.K() > 2 {
				j = 5
			}
			c.Write(vp, j, 1.0) // want `cannot prove VP write sets of c disjoint`
			lo, hi := ppm.ChunkRange(64, vp.K(), vp.NodeRank())
			lo = lo + 0
			for x := lo; x < hi; x++ {
				e.Write(vp, x, 1.0) // want `overlapping elements of e`
			}
			m := vp.GlobalRank()
			for t := 0; t < 2; t++ {
				f.Write(vp, m, 1.0) // want `cannot prove VP write sets of f disjoint`
				m = 7
			}
		})
	})
}
