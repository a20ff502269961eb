// Package scatter implements a CG-transpose-style scatter-add workload:
// every virtual processor reads a neighbor node's whole partition and
// then scatter-adds short, near-monotone strided runs back into it. The
// figure apps write owner-locally, so this is the repository's
// commit-plane stress shape — it drives remote CommitData frames (and
// the commit codec) end to end, its fan-in reads exercise fleet-wide
// read coalescing, and its seeded per-phase scatter pattern gives the
// phase-plan cache a stable-but-irregular shape to memoize.
package scatter

import (
	"flag"
	"fmt"

	"ppm/internal/core"
	"ppm/internal/rng"
)

// Params describes one scatter workload.
type Params struct {
	N     int    // global accumulator length
	VPs   int    // virtual processors per node
	Iters int    // scatter-add phases
	Seed  uint64 // workload seed
}

// WithDefaults fills zero fields with the canonical wire-path workload
// (3000 elements, 6 VPs per node, 4 iterations, seed 7).
func (p Params) WithDefaults() Params {
	if p.N == 0 {
		p.N = 3000
	}
	if p.VPs == 0 {
		p.VPs = 6
	}
	if p.Iters == 0 {
		p.Iters = 4
	}
	if p.Seed == 0 {
		p.Seed = 7
	}
	return p
}

// Flags binds p to its command-line flags on fs, defaulted as WithDefaults.
func (p *Params) Flags(fs *flag.FlagSet) {
	*p = p.WithDefaults()
	fs.IntVar(&p.N, "scatter-n", p.N, "scatter: global accumulator length")
	fs.IntVar(&p.VPs, "scatter-vps", p.VPs, "scatter: virtual processors per node")
	fs.IntVar(&p.Iters, "scatter-iters", p.Iters, "scatter: scatter-add phases")
	fs.Uint64Var(&p.Seed, "scatter-seed", p.Seed, "scatter: workload seed")
}

// Canonical is what a job hash covers: every field as a 64-bit word
// (floats as their bit pattern), in a fixed order.
func (p Params) Canonical() []uint64 {
	return []uint64{uint64(p.N), uint64(p.VPs), uint64(p.Iters), p.Seed}
}

// MaxSlab bounds the accumulator and each node's read slab, VPs windows
// of up to N+1 elements (Prog). A simulator job runs inside the process
// that serves it, so a size past any bound would end that process out of
// memory rather than fail the job; this is far above every size the repo
// runs.
const MaxSlab = 1 << 24

// Validate reports the first parameter no run could use.
func (p Params) Validate() error {
	if p.N <= 0 || p.VPs <= 0 || p.Iters <= 0 {
		return fmt.Errorf("scatter: N, VPs, and Iters must be positive, got %d, %d, %d",
			p.N, p.VPs, p.Iters)
	}
	if p.N >= MaxSlab || p.VPs > MaxSlab/(p.N+1) {
		return fmt.Errorf("scatter: VPs x (N+1) must be at most %d, got %d x %d", MaxSlab, p.VPs, p.N+1)
	}
	return nil
}

// Prog returns the PPM program, writing each node's final partition of
// the accumulator into out[node]. Reads feed the written values, so a
// wrong byte anywhere on the wire or commit path diverges the output
// bits.
func Prog(p Params, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "acc", p.N)
		// A checkpoint tagged T holds the accumulator after iteration
		// T-1; the per-phase scatter pattern is keyed by (iter, rank), so
		// a restored run replays the remaining iterations bit-exactly.
		start := 0
		if tag, ok := rt.RestoreCheckpoint(); ok {
			start = int(tag)
		}
		// One read window per VP rank, made once: a target partition holds
		// at most N/nodes+1 elements.
		win := p.N/rt.NodeCount() + 1
		slab := make([]float64, p.VPs*win)
		for it := start; it < p.Iters; it++ {
			iter := it
			rt.Do(p.VPs, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					nodes := vp.Nodes()
					tgt := (vp.Node() + 1) % nodes
					rlo, rhi := core.ChunkRange(p.N, nodes, tgt)
					buf := slab[vp.NodeRank()*win:][:rhi-rlo]
					g.ReadBlock(vp, rlo, rhi, buf)
					var sum float64
					for _, v := range buf {
						sum += v
					}
					r := rng.New(p.Seed).Split(uint64(iter*1024 + vp.GlobalRank()))
					for j, i := 0, rlo; j < 40 && i < rhi; j++ {
						g.Add(vp, i, sum*1e-6+r.NormFloat64())
						i += 1 + int(r.Uint64()%4)
					}
				})
			})
			rt.MaybeCheckpoint(int64(it + 1))
		}
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// RunPPM runs the workload under the in-process simulator and returns
// every node's final partition.
func RunPPM(opt core.Options, p Params) ([][]float64, *core.Report, error) {
	return RunPPMOn(core.Run, opt, p)
}

// RunPPMOn executes the same program under any core.Runner — the
// simulator (core.Run) or one process of a distributed run (which fills
// only its own node's partition slice).
func RunPPMOn(run core.Runner, opt core.Options, p Params) ([][]float64, *core.Report, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	out := make([][]float64, opt.Nodes)
	rep, err := run(opt, Prog(p, out))
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
