package colloc

import (
	"fmt"
	"sort"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/partition"
)

// MPIOptions configures the message-passing baseline run.
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
		return o, fmt.Errorf("colloc: invalid MPI shape %d nodes x %d cores", o.Nodes, o.CoresPerNode)
	}
	return o, nil
}

// RunMPI generates the matrix with the message-passing program: per
// level, each rank computes its block of the table, builds an explicit
// fetch plan for the scattered remote table values its rows need,
// exchanges index lists and packed value replies, and only then computes
// its entries from local + fetched data.
func RunMPI(opt MPIOptions, p Params) (*Matrix, *cluster.Report, error) {
	o, err := opt.fill()
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.N()
	out := &Matrix{N: n, Rows: make([][]Entry, n)}
	rep, err := cluster.Run(cluster.Config{
		Procs:        o.Nodes * o.CoresPerNode,
		ProcsPerNode: o.CoresPerNode,
		Machine:      o.Machine,
		Parallel:     o.Parallel,
	}, func(proc *cluster.Proc) {
		mpiNode(mp.New(proc), p, out)
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

func mpiNode(c *mp.Comm, p Params, out *Matrix) {
	ranks, me := c.Size(), c.Rank()
	// Cyclic row distribution, same as the PPM program: entry cost grows
	// steeply with the row's level.
	pat := newRankPattern(p, me, ranks)
	c.Proc().ChargeFlops(int64(pat.nnz() * 8))
	vals := make([]float64, pat.nnz())

	for l := 0; l < p.Levels; l++ {
		tabPart := partition.NewBlock(p.q(l), ranks)
		tlo, thi := tabPart.Range(me)
		chunk := make([]float64, thi-tlo)
		var fl int64
		for j := tlo; j < thi; j++ {
			v, f := TableEntry(p, l, j)
			chunk[j-tlo] = v
			fl += f
		}
		c.Proc().ChargeFlops(fl)

		// Which table indices do my level-l entries need, and who owns
		// them? Dedupe, then exchange request lists and packed replies.
		needSet := make(map[int]bool)
		for _, r := range pat.levelRuns(l) {
			perCell := p.q(l) / p.m(r.Lj)
			for j := r.K0 * perCell; j < (r.K0+r.N)*perCell; j++ {
				if j < tlo || j >= thi {
					needSet[j] = true
				}
			}
		}
		reqs := make([][]int64, ranks)
		for j := range needSet {
			owner := tabPart.Owner(j)
			reqs[owner] = append(reqs[owner], int64(j))
		}
		for _, r := range reqs {
			sort.Slice(r, func(a, b int) bool { return r[a] < r[b] })
		}
		gotReqs := mp.Alltoallv(c, reqs)
		replies := make([][]float64, ranks)
		for peer, list := range gotReqs {
			if peer == me || len(list) == 0 {
				continue
			}
			buf := make([]float64, len(list))
			for i, j := range list {
				buf[i] = chunk[int(j)-tlo]
			}
			c.Proc().ChargeMem(int64(8 * len(buf)))
			replies[peer] = buf
		}
		gotVals := mp.Alltoallv(c, replies)
		ghost := make(map[int]float64, len(needSet))
		for peer, list := range reqs {
			if peer == me {
				continue
			}
			vs := gotVals[peer]
			if len(vs) != len(list) {
				panic(fmt.Sprintf("colloc: rank %d: %d values for %d requests from %d", me, len(vs), len(list), peer))
			}
			for i, j := range list {
				ghost[int(j)] = vs[i]
			}
			c.Proc().ChargeMem(int64(8 * len(vs)))
		}
		gread := func(j int) float64 {
			if j >= tlo && j < thi {
				return chunk[j-tlo]
			}
			v, ok := ghost[j]
			if !ok {
				panic(fmt.Sprintf("colloc: rank %d missing table value %d at level %d", me, j, l))
			}
			return v
		}
		fl = 0
		lo, hi := pat.span(l)
		for e, cur := lo, pat.at(lo); e < hi; e++ {
			r, t := cur.next()
			_, ti := p.row(r.Row)
			v, f := EntryValue(p, ti, r.Ref(p, t), gread)
			vals[e] = v
			fl += f
		}
		c.Proc().ChargeFlops(fl)
	}

	// Assemble local rows; they land in the shared output under the
	// simulator's turn discipline (each rank owns disjoint rows).
	pat.fill(p, out, vals)
	c.Proc().ChargeMem(int64(16 * pat.nnz()))
	c.Barrier()
}
