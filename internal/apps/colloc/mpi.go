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
	n := p.N()
	ranks, me := c.Size(), c.Rank()
	// Cyclic row distribution, same as the PPM program: entry cost grows
	// steeply with the row's level.
	var myRows []int
	for i := me; i < n; i += ranks {
		myRows = append(myRows, i)
	}

	type slot struct {
		row int
		c   ColRef
	}
	// Two passes over one scratch row: sizes first, so that pat is
	// allocated once.
	var scratch []ColRef
	total := 0
	for _, i := range myRows {
		scratch = AppendRowPattern(scratch[:0], p, i)
		total += len(scratch)
	}
	pat := make([]slot, 0, total)
	perLevel := make([]int, p.Levels)
	for _, i := range myRows {
		scratch = AppendRowPattern(scratch[:0], p, i)
		for _, cr := range scratch {
			pat = append(pat, slot{row: i, c: cr})
			perLevel[cr.Lq]++
		}
	}
	c.Proc().ChargeFlops(int64(len(pat) * 8))
	vals := make([]float64, len(pat))

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
		mine := make([]int, 0, perLevel[l])
		for s, sl := range pat {
			if sl.c.Lq != l {
				continue
			}
			mine = append(mine, s)
			perCell := p.q(l) / p.m(sl.c.Lj)
			j0 := sl.c.Kj * perCell
			for j := j0; j < j0+perCell; j++ {
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
		for _, s := range mine {
			sl := pat[s]
			li, ki := p.levelOf(sl.row)
			ti := p.point(li, ki)
			v, f := EntryValue(p, ti, sl.c, gread)
			vals[s] = v
			fl += f
		}
		c.Proc().ChargeFlops(fl)
	}

	// Assemble local rows; they land in the shared output under the
	// simulator's turn discipline (each rank owns disjoint rows).
	for s, sl := range pat {
		out.Rows[sl.row] = append(out.Rows[sl.row], Entry{Col: sl.c.Col, Val: vals[s]})
	}
	c.Proc().ChargeMem(int64(16 * len(pat)))
	c.Barrier()
}
