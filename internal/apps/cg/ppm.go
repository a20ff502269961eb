package cg

import (
	"math"

	"ppm/internal/core"
	"ppm/internal/linalg"
	"ppm/internal/sparse"
)

func RunPPM(opt core.Options, prm Params) (*Result, *core.Report, error) {
	return RunPPMOn(core.Run, opt, prm)
}

// RunPPMOn executes the same PPM program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run. A single
// program text for both modes is what makes their results comparable
// bit for bit.
func RunPPMOn(run core.Runner, opt core.Options, prm Params) (*Result, *core.Report, error) {
	if err := prm.Validate(); err != nil {
		return nil, nil, err
	}
	res := &Result{}
	rep, err := run(opt, func(rt *core.Runtime) {
		n := prm.N()
		p := core.AllocGlobal[float64](rt, "cg.p", n)
		xOut := core.AllocGlobal[float64](rt, "cg.x", n)
		lo, hi := p.OwnerRange(rt)
		nLocal := hi - lo
		maxLocal := n/rt.NodeCount() + 1
		w := core.AllocNode[float64](rt, "cg.w", maxLocal)
		acc := core.AllocNode[float64](rt, "cg.acc", 1)

		// The operator is generated, not stored: a row's runs of
		// consecutive columns and its diagonal follow from the grid, and
		// every other entry is -1. The model still charges streaming the
		// stored block. b = A·1, so the exact solution is all ones and b's
		// entries are row sums: 27 less the row's other entries.
		var runBuf [9]sparse.ColRun
		b := make([]float64, nLocal)
		nnz := 0
		for r := range b {
			runs, _ := sparse.Stencil27RowRuns(prm.NX, prm.NY, prm.NZ, lo+r, runBuf[:0])
			k := 0
			for _, cr := range runs {
				k += cr.N
			}
			b[r] = 28 - float64(k)
			nnz += k
		}
		rt.ChargeMem(int64(nnz * 12))
		rt.ChargeFlops(int64(nnz))
		// x and r live in shared arrays (x doubles as the published
		// solution) so the iteration state is covered by phase-boundary
		// checkpoints and a restored run resumes mid-solve.
		rvec := core.AllocGlobal[float64](rt, "cg.r", n)
		x := xOut.Local(rt)
		r := rvec.Local(rt)
		copy(r, b)
		linalg.Copy(p.Local(rt), r)
		rt.ChargeMem(int64(8 * nLocal))

		dotB, fl := linalg.Dot(b, b)
		rt.ChargeFlops(fl)
		normB := math.Sqrt(rt.AllReduce(dotB, core.OpSum))
		rsLocal, fl := linalg.Dot(r, r)
		rt.ChargeFlops(fl)
		rs := rt.AllReduce(rsLocal, core.OpSum)

		// A checkpoint tagged T holds x, r, and p as of the end of
		// iteration T-1; resume recomputes rs from the restored residual
		// (Dot and the AllReduce grouping are deterministic, so the value
		// is bit-equal to the rsNew the checkpointed iteration saw).
		start := 0
		if tag, ok := rt.RestoreCheckpoint(); ok {
			start = int(tag)
			rsLocal, fl = linalg.Dot(r, r)
			rt.ChargeFlops(fl)
			rs = rt.AllReduce(rsLocal, core.OpSum)
		}

		k := rt.CoresPerNode() * 4
		iters, finalRes := start, math.Sqrt(rs)
		for it := start; it < prm.MaxIter; it++ {
			acc.Local(rt)[0] = 0
			// One global phase: w = A p on local rows, with the search
			// direction read through the globally shared array — remote
			// entries are fetched and bundled by the runtime — and the
			// p·w partial accumulated into node shared memory.
			rt.Do(k, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					vlo, vhi := core.ChunkRange(nLocal, k, vp.NodeRank())
					var runBuf [9]sparse.ColRun
					var buf [27]float64
					var dot float64
					nnz := 0
					for row := vlo; row < vhi; row++ {
						runs, diag := sparse.Stencil27RowRuns(prm.NX, prm.NY, prm.NZ, lo+row, runBuf[:0])
						var s float64
						kk := 0
						for _, cr := range runs {
							p.ReadBlock(vp, cr.Col, cr.Col+cr.N, buf[:])
							for j := 0; j < cr.N; j++ {
								v := -1.0
								if kk == diag {
									v = 27.0
								}
								s += v * buf[j]
								kk++
							}
						}
						nnz += kk
						w.Write(vp, row, s)
						dot += s * p.Read(vp, lo+row)
					}
					acc.Add(vp, 0, dot)
					vp.ChargeFlops(int64(2*nnz + 2*(vhi-vlo)))
				})
			})
			pw := rt.AllReduce(acc.Local(rt)[0], core.OpSum)
			alpha := rs / pw
			pl := p.Local(rt)
			wl := w.Local(rt)
			fl = linalg.Axpy(alpha, pl, x)
			fl += linalg.Axpy(-alpha, wl[:nLocal], r)
			rt.ChargeFlops(fl)
			rsLocal, fl = linalg.Dot(r, r)
			rt.ChargeFlops(fl)
			rsNew := rt.AllReduce(rsLocal, core.OpSum)
			iters = it + 1
			finalRes = math.Sqrt(rsNew)
			if rsNew == 0 || prm.Tol > 0 && finalRes <= prm.Tol*normB {
				break
			}
			beta := rsNew / rs
			for i := range pl {
				pl[i] = r[i] + beta*pl[i]
			}
			rt.ChargeFlops(int64(2 * nLocal))
			rs = rsNew
			rt.MaybeCheckpoint(int64(it + 1))
		}
		// x already is xOut's local block; charge the publish traffic the
		// copy used to model and let node 0 collect it.
		rt.ChargeMem(int64(8 * nLocal))
		rt.Barrier()
		if rt.NodeID() == 0 {
			out := make([]float64, n)
			for i := range out {
				out[i] = xOut.At(rt, i)
			}
			res.X = out
			res.Iters = iters
			res.Residual = finalRes
		}
	})
	if err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}
