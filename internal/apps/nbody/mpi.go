package nbody

import (
	"fmt"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/octree"
	"ppm/internal/partition"
)

type MPIOptions struct {
	Nodes        int
	CoresPerNode int
	Machine      *machine.Machine
	Parallel     bool // host-parallel scheduler (bit-identical results)
}

func (o MPIOptions) fill() (MPIOptions, error) {
	if o.Machine == nil {
		o.Machine = machine.Franklin()
	}
	if err := o.Machine.Validate(); err != nil {
		return o, err
	}
	if o.CoresPerNode == 0 {
		o.CoresPerNode = o.Machine.CoresPerNode
	}
	if o.Nodes <= 0 || o.CoresPerNode <= 0 {
		return o, fmt.Errorf("nbody: invalid MPI shape %d nodes x %d cores", o.Nodes, o.CoresPerNode)
	}
	return o, nil
}

// RunMPI runs the tree-replication message-passing baseline: each step,
// every rank builds its local tree, all trees are allgathered to all
// ranks, and forces are computed locally against the replicated forest.
func RunMPI(opt MPIOptions, p Params) (*State, *cluster.Report, error) {
	o, err := opt.fill()
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	init := InitState(p)
	out := &State{
		PX: make([]float64, p.N), PY: make([]float64, p.N), PZ: make([]float64, p.N),
		VX: make([]float64, p.N), VY: make([]float64, p.N), VZ: make([]float64, p.N),
		M: append([]float64(nil), init.M...),
	}
	rep, err := cluster.Run(cluster.Config{
		Procs:        o.Nodes * o.CoresPerNode,
		ProcsPerNode: o.CoresPerNode,
		Machine:      o.Machine,
		Parallel:     o.Parallel,
	}, func(proc *cluster.Proc) {
		c := mp.New(proc)
		ranks, me := c.Size(), c.Rank()
		part := partition.NewBlock(p.N, ranks)
		lo, hi := part.Range(me)
		nLocal := hi - lo
		s := &State{
			PX: append([]float64(nil), init.PX[lo:hi]...),
			PY: append([]float64(nil), init.PY[lo:hi]...),
			PZ: append([]float64(nil), init.PZ[lo:hi]...),
			VX: append([]float64(nil), init.VX[lo:hi]...),
			VY: append([]float64(nil), init.VY[lo:hi]...),
			VZ: append([]float64(nil), init.VZ[lo:hi]...),
			M:  append([]float64(nil), init.M[lo:hi]...),
		}
		for st := 0; st < p.Steps; st++ {
			bodies := s.Bodies(0, nLocal)
			cx, cy, cz, h := octree.Bounds(bodies)
			tree := octree.Build(bodies, cx, cy, cz, h)
			flat := tree.Flatten()
			tree.Release()
			proc.ChargeFlops(buildFlops(nLocal))
			// Replicate the forest: first the sizes, then every tree to
			// every rank. This is the method's defining (and damning)
			// traffic.
			lens := mp.Allgather(c, []int64{int64(len(flat))})
			counts := make([]int, ranks)
			for r := range counts {
				counts[r] = int(lens[r])
			}
			forest := mp.Allgatherv(c, flat, counts)
			trees := make([]octree.Source, ranks)
			off := 0
			for r := 0; r < ranks; r++ {
				trees[r] = octree.NewSliceSource(forest[off : off+counts[r]])
				off += counts[r]
			}
			proc.ChargeMem(int64(8 * len(forest)))
			inter := step(p, s, part, 0, nLocal, trees)
			proc.ChargeFlops(inter * interactionFlops)
			c.Barrier()
		}
		copy(out.PX[lo:hi], s.PX)
		copy(out.PY[lo:hi], s.PY)
		copy(out.PZ[lo:hi], s.PZ)
		copy(out.VX[lo:hi], s.VX)
		copy(out.VY[lo:hi], s.VY)
		copy(out.VZ[lo:hi], s.VZ)
		c.Barrier()
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
