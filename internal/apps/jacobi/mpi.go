package jacobi

import (
	"fmt"
	"sort"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/partition"
)

// MPIOptions configures the message-passing run.
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
		return o, fmt.Errorf("jacobi: invalid MPI shape %d nodes x %d cores", o.Nodes, o.CoresPerNode)
	}
	return o, nil
}

const tagHalo = 2

// RunMPI relaxes the grid with the classic structured message-passing
// pattern: block decomposition, per-sweep halo exchange of the boundary
// planes, pure local updates. This is message passing on its home turf.
func RunMPI(opt MPIOptions, p Params) ([]float64, *cluster.Report, error) {
	o, err := opt.fill()
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.N()
	out := make([]float64, n)
	rep, err := cluster.Run(cluster.Config{
		Procs:        o.Nodes * o.CoresPerNode,
		ProcsPerNode: o.CoresPerNode,
		Machine:      o.Machine,
		Parallel:     o.Parallel,
	}, func(proc *cluster.Proc) {
		c := mp.New(proc)
		part := partition.NewBlock(n, c.Size())
		lo, hi := part.Range(c.Rank())
		nLocal := hi - lo

		// Halo plan: the out-of-block neighbor indices each point needs.
		needSet := make(map[int]bool)
		for i := lo; i < hi; i++ {
			p.relaxPoint(i, func(j int) float64 {
				if j < lo || j >= hi {
					needSet[j] = true
				}
				return 0
			})
		}
		needed := make([]int, 0, len(needSet))
		for j := range needSet {
			needed = append(needed, j)
		}
		sort.Ints(needed)
		ghostOf := make(map[int]int, len(needed))
		reqs := make([][]int64, c.Size())
		for slot, j := range needed {
			ghostOf[j] = slot
			owner := part.Owner(j)
			reqs[owner] = append(reqs[owner], int64(j))
		}
		gotReqs := mp.Alltoallv(c, reqs)

		u := make([]float64, nLocal)
		next := make([]float64, nLocal)
		ghosts := make([]float64, len(needed))
		for s := 0; s < p.Sweeps; s++ {
			// Exchange boundary planes.
			for peer, list := range gotReqs {
				if peer == c.Rank() || len(list) == 0 {
					continue
				}
				buf := make([]float64, len(list))
				for i, j := range list {
					buf[i] = u[int(j)-lo]
				}
				proc.ChargeMem(int64(8 * len(buf)))
				mp.Send(c, peer, tagHalo, buf)
			}
			for peer, list := range reqs {
				if peer == c.Rank() || len(list) == 0 {
					continue
				}
				buf := mp.Recv[float64](c, peer, tagHalo)
				for i, j := range list {
					ghosts[ghostOf[int(j)]] = buf[i]
				}
				proc.ChargeMem(int64(8 * len(buf)))
			}
			for i := lo; i < hi; i++ {
				next[i-lo] = p.relaxPoint(i, func(j int) float64 {
					if j >= lo && j < hi {
						return u[j-lo]
					}
					return ghosts[ghostOf[j]]
				})
			}
			proc.ChargeFlops(int64(relaxFlops * nLocal))
			u, next = next, u
		}
		full := mp.Gatherv(c, 0, u, part.Counts())
		if c.Rank() == 0 {
			copy(out, full)
		}
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
