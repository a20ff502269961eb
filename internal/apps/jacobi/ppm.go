package jacobi

import (
	"ppm/internal/core"
)

// RunPPM relaxes the grid under the Parallel Phase Model. One global
// phase per sweep: every VP reads its points' neighbors from the shared
// previous iterate — begin-of-phase semantics ARE the double buffer — and
// writes the new values, which commit at the phase end.
func RunPPM(opt core.Options, p Params) ([]float64, *core.Report, error) {
	return RunPPMOn(core.Run, opt, p)
}

// RunPPMOn executes the same PPM program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run.
func RunPPMOn(run core.Runner, opt core.Options, p Params) ([]float64, *core.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := p.N()
	out := make([]float64, n)
	rep, err := run(opt, func(rt *core.Runtime) {
		u := core.AllocGlobal[float64](rt, "jacobi.u", n)
		lo, hi := u.OwnerRange(rt)
		nLocal := hi - lo
		k := rt.CoresPerNode() * 4
		// Checkpoint-aware outer loop: the tag is the number of completed
		// sweeps, so a restored run fast-forwards past them (one sweep is
		// one global phase; the array state carries everything else).
		// Under the simulator, or without checkpointing configured, both
		// calls are no-ops and the loop runs from 0 as always.
		start := 0
		if tag, ok := rt.RestoreCheckpoint(); ok {
			start = int(tag)
		}
		for s := start; s < p.Sweeps; s++ {
			rt.Do(k, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					vlo, vhi := core.ChunkRange(nLocal, k, vp.NodeRank())
					for i := lo + vlo; i < lo+vhi; i++ {
						u.Write(vp, i, p.relaxPoint(i, func(j int) float64 {
							return u.Read(vp, j)
						}))
					}
					vp.ChargeFlops(int64(relaxFlops * (vhi - vlo)))
				})
			})
			rt.MaybeCheckpoint(int64(s + 1))
		}
		rt.Barrier()
		if rt.NodeID() == 0 {
			for i := 0; i < n; i++ {
				out[i] = u.At(rt, i)
			}
		}
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
