package nbody

import (
	"fmt"

	"ppm/internal/core"
	"ppm/internal/octree"
	"ppm/internal/partition"
)

// treeSources binds the shared forest to one VP for one phase: the source of
// each partition's tree, all backed by the returned octree.Cache, which
// belongs to the VP. The cache is per VP because the first touch is what the
// model charges: a record goes through ReadBlock (two contiguous slot runs,
// the elements and modeled costs of the scalar DecodeNode) once per VP and
// phase, and is read in place, by reference, for every later body. The
// forest is immutable within the phase, so the records stay valid until the
// VP releases the cache, which passes its chunks on to the next VP.
func treeSources(g *core.Global[float64], vp *core.VP, nodes, segLen int) ([]octree.Source, *octree.Cache) {
	cache := octree.NewCache(func(lo, hi int, dst []float64) { g.ReadBlock(vp, lo, hi, dst) })
	trees := make([]octree.Source, nodes)
	for r := range trees {
		trees[r] = cache.Tree(r*segLen, segLen/octree.Slots)
	}
	return trees, cache
}

// RunPPM runs the simulation under the Parallel Phase Model.
func RunPPM(opt core.Options, p Params) (*State, *core.Report, error) {
	return RunPPMOn(core.Run, opt, p)
}

// RunPPMOn executes the same PPM program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run. In the
// latter case only the calling process's block of the position/velocity
// arrays is populated; the launcher merges the fragments.
func RunPPMOn(run core.Runner, opt core.Options, p Params) (*State, *core.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	init := InitState(p)
	out := &State{
		PX: make([]float64, p.N), PY: make([]float64, p.N), PZ: make([]float64, p.N),
		VX: make([]float64, p.N), VY: make([]float64, p.N), VZ: make([]float64, p.N),
		M: append([]float64(nil), init.M...),
	}
	rep, err := run(opt, func(rt *core.Runtime) {
		nodes, me := rt.NodeCount(), rt.NodeID()
		part := partition.NewBlock(p.N, nodes)
		lo, hi := part.Range(me)
		nLocal := hi - lo
		capN := segCap(part.Size(0)) // per-node tree segment, in tree nodes
		segLen := capN * octree.Slots
		trees := core.AllocGlobal[float64](rt, "bh.trees", nodes*segLen)
		if glo, _ := trees.OwnerRange(rt); glo != me*segLen {
			panic("nbody: forest segment misaligned with block partition")
		}

		// Local working state: a copy of this node's slice of phase space.
		s := &State{
			PX: append([]float64(nil), init.PX[lo:hi]...),
			PY: append([]float64(nil), init.PY[lo:hi]...),
			PZ: append([]float64(nil), init.PZ[lo:hi]...),
			VX: append([]float64(nil), init.VX[lo:hi]...),
			VY: append([]float64(nil), init.VY[lo:hi]...),
			VZ: append([]float64(nil), init.VZ[lo:hi]...),
			M:  append([]float64(nil), init.M[lo:hi]...),
		}
		// Modest VP counts: force work is uniform per body, and larger
		// per-VP chunks let each VP's record cache amortize across more
		// bodies (#misses scales with VPs x distinct records).
		k := rt.CoresPerNode() * 2
		for st := 0; st < p.Steps; st++ {
			// Build this node's tree over its bodies and publish it into
			// the shared forest segment.
			bodies := s.Bodies(0, nLocal)
			cx, cy, cz, h := octree.Bounds(bodies)
			tree := octree.Build(bodies, cx, cy, cz, h)
			if tree.NumNodes() > capN {
				panic(fmt.Sprintf("nbody: tree of %d nodes exceeds segment capacity %d", tree.NumNodes(), capN))
			}
			flat := tree.FlattenInto(trees.Local(rt))
			tree.Release()
			rt.ChargeFlops(buildFlops(nLocal))
			rt.ChargeMem(int64(8 * len(flat)))

			// One global phase: every VP computes forces on its body
			// chunk by traversing all partitions' trees in place.
			rt.Do(k, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					vlo, vhi := core.ChunkRange(nLocal, k, vp.NodeRank())
					// step mutates only s.VX/VY/VZ/PX/PY/PZ[i] for i in
					// this VP's [vlo, vhi) chunk, and ChunkRange windows
					// of distinct VPs are disjoint: the VPs share s
					// without a race (the race-parallel CI job runs this
					// under -race).
					srcs, cache := treeSources(trees, vp, nodes, segLen)
					inter := step(p, s, part, vlo, vhi, srcs)
					cache.Release()
					vp.ChargeFlops(inter * interactionFlops)
				})
			})
		}
		// Emit this node's final slice into the shared result.
		copy(out.PX[lo:hi], s.PX)
		copy(out.PY[lo:hi], s.PY)
		copy(out.PZ[lo:hi], s.PZ)
		copy(out.VX[lo:hi], s.VX)
		copy(out.VY[lo:hi], s.VY)
		copy(out.VZ[lo:hi], s.VZ)
		rt.Barrier()
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
