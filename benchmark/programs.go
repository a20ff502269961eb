package main

import (
	"ppm/internal/core"
	"ppm/internal/rng"
)

// The figure apps write owner-locally, so their remote commit streams
// are empty. These two programs are the benchmark's own, written against
// core's public API, and exist to put bytes on the commit plane in the
// two shapes that separate a codec win from a bundling win: many
// one-element runs (headers dominate) and few long runs (payload
// dominates). Reads feed the written values, so a wrong byte anywhere
// on the wire diverges the output bits.
const (
	progN      = 1 << 18 // global accumulator length
	progVPs    = 4       // virtual processors per node
	progPhases = 8
	sparseAdds = 2000 // single-element Add runs per VP per phase
	denseBlock = 4096 // elements per WriteBlock
	progProbe  = 256  // elements each VP reads from the next rank per phase
)

// program is a PPM program that leaves each node's final partition in
// out[node].
type program func(seed uint64, out [][]float64) func(rt *core.Runtime)

// readProbe reads the first progProbe elements of the next rank's
// partition and returns their sum.
func readProbe(g *core.Global[float64], vp *core.VP) float64 {
	rlo, _ := core.ChunkRange(progN, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
	buf := make([]float64, progProbe)
	g.ReadBlock(vp, rlo, rlo+progProbe, buf)
	var sum float64
	for _, v := range buf {
		sum += v
	}
	return sum
}

// addSparse is the BENCH_wire.json shape: each VP scatter-adds
// sparseAdds single elements, at strides of 2 to 5, into the next
// rank's partition.
func addSparse(seed uint64, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "acc", progN)
		for it := 0; it < progPhases; it++ {
			iter := it
			rt.Do(progVPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					sum := readProbe(g, vp)
					rlo, rhi := core.ChunkRange(progN, vp.Nodes(), (vp.Node()+1)%vp.Nodes())
					r := rng.New(seed).Split(uint64(iter*64 + vp.GlobalRank()))
					i := rlo + vp.NodeRank()*(rhi-rlo)/progVPs
					for j := 0; j < sparseAdds && i < rhi; j++ {
						g.Add(vp, i, sum*1e-9+r.NormFloat64())
						i += 2 + int(r.Uint64()%4)
					}
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// writeDense has each VP write one denseBlock-element block into every
// other rank's partition per phase. Writers get disjoint blocks (slot =
// source position x VP), and the block a slot maps to rotates with the
// phase so later phases overwrite earlier ones.
func writeDense(seed uint64, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "acc", progN)
		for it := 0; it < progPhases; it++ {
			iter := it
			rt.Do(progVPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					sum := readProbe(g, vp)
					nodes := vp.Nodes()
					r := rng.New(seed).Split(uint64(iter*64 + vp.GlobalRank()))
					block := make([]float64, denseBlock)
					for tgt := 0; tgt < nodes; tgt++ {
						if tgt == vp.Node() {
							continue
						}
						for i := range block {
							block[i] = sum*1e-9 + r.NormFloat64()
						}
						rlo, rhi := core.ChunkRange(progN, nodes, tgt)
						src := (vp.Node() - tgt - 1 + nodes) % nodes
						slot := src*progVPs + vp.NodeRank()
						nblk := (rhi - rlo) / denseBlock
						g.WriteBlock(vp, rlo+(slot+iter*(nodes-1)*progVPs)%nblk*denseBlock, block)
					}
				})
			})
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// runProgram runs p under any core.Runner and returns every node's
// partition (a distributed rank fills only its own) and the report.
func runProgram(run core.Runner, opt core.Options, p program, seed uint64) ([][]float64, *core.Report, error) {
	out := make([][]float64, opt.Nodes)
	rep, err := run(opt, p(seed, out))
	return out, rep, err
}
