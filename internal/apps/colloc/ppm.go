package colloc

import (
	"fmt"

	"ppm/internal/core"
)

// RunPPM generates the matrix with the Parallel Phase Model: per level,
// one global phase fills the level's shared table and a second computes
// the entries whose quadrature lives at that level, reading the table
// with global indexing (the runtime bundles the scattered reads).
func RunPPM(opt core.Options, p Params) (*Matrix, *core.Report, error) {
	return RunPPMOn(core.Run, opt, p)
}

// RunPPMOn executes the same PPM program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run. Out.Rows is
// populated only for the calling process's cyclic rows in the latter
// case; the launcher merges the fragments.
func RunPPMOn(run core.Runner, opt core.Options, p Params) (*Matrix, *core.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.N()
	out := &Matrix{N: n, Rows: make([][]Entry, n)}
	rep, err := run(opt, func(rt *core.Runtime) {
		// Rows are dealt cyclically over the nodes: entry cost grows
		// steeply with the row's level, so a block distribution would
		// concentrate the expensive fine-level rows on the last node.
		// The local sparsity pattern is node-level and cheap.
		pat := newRankPattern(p, rt.NodeID(), rt.NodeCount())
		rt.ChargeFlops(int64(pat.nnz() * 8))

		// Shared tables, one per level, and a node-shared value buffer
		// sized for the largest node's nonzero count.
		tables := make([]*core.Global[float64], p.Levels)
		for l := range tables {
			tables[l] = core.AllocGlobal[float64](rt, fmt.Sprintf("colloc.G%d", l), p.q(l))
		}
		maxNNZ := int(rt.AllReduceInt(int64(pat.nnz()), core.OpMax))
		vals := core.AllocNode[float64](rt, "colloc.vals", maxNNZ)

		// Entry costs are heavily skewed (a fine-level row integrating a
		// coarse-level basis reads exponentially many table values), so
		// express much more parallelism than there are cores and let the
		// runtime balance it — the model's intended use of virtualization.
		k := rt.CoresPerNode() * 32
		// Each VP rank's scratch for phase A's table row and phase B's
		// table run, held for every level: WriteBlock copies its source,
		// and a VP rank runs on one worker at a time.
		rows, tabs := make([][]float64, k), make([][]float64, k)
		for l := 0; l < p.Levels; l++ {
			g := tables[l]
			glo, ghi := g.OwnerRange(rt)
			elo, ehi := pat.span(l)
			rt.Do(k, func(vp *core.VP) {
				// Phase A: produce this level's table (own partition).
				// Entries are computed into a scratch row and committed
				// with one block write; the modeled per-element write
				// costs are unchanged because TableEntry charges nothing
				// inline (flops are charged in bulk below).
				vp.GlobalPhase(func() {
					vlo, vhi := core.ChunkRange(ghi-glo, k, vp.NodeRank())
					row := grow(&rows[vp.NodeRank()], vhi-vlo)[:vhi-vlo]
					var fl int64
					for j := glo + vlo; j < glo+vhi; j++ {
						v, f := TableEntry(p, l, j)
						row[j-glo-vlo] = v
						fl += f
					}
					g.WriteBlock(vp, glo+vlo, row)
					vp.ChargeFlops(fl)
				})
				// Phase B: compute the level's matrix entries. Each
				// entry's quadrature reads a contiguous run of the table,
				// so the run is fetched with one block access and the
				// entry evaluated from the prefetched values. A VP's
				// entries are one chunk of the level's positions, which
				// index vals, so VPs write disjoint ranges.
				vp.GlobalPhase(func() {
					vlo, vhi := core.ChunkRange(ehi-elo, k, vp.NodeRank())
					var fl int64
					cur := pat.at(elo + vlo)
					for e := elo + vlo; e < elo+vhi; e++ {
						r, t := cur.next()
						c := r.Ref(p, t)
						_, ti := p.row(r.Row)
						j0, nj := EntrySupport(p, c)
						tab := grow(&tabs[vp.NodeRank()], nj)[:nj]
						g.ReadBlock(vp, j0, j0+nj, tab)
						v, f := EntryValueBlock(p, ti, c, tab)
						vals.Write(vp, e, v)
						fl += f
					}
					vp.ChargeFlops(fl)
				})
			})
		}
		// Assemble local rows from the committed value buffer.
		pat.fill(p, out, vals.Local(rt))
		rt.ChargeMem(int64(16 * pat.nnz()))
		rt.Barrier()
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// grow returns *buf, first reallocating it if it holds fewer than n
// elements.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return *buf
}
