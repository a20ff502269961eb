// Steady-state benchmarks: the same phase shape executed repeatedly,
// contrasting cold iterations (plan cache off — every Do builds a new
// doRun, which draws its scratch from the pools, and every commit
// re-merges read sets) with warm iterations (plan
// cache on — doRuns, VP slabs, write buffers, and phase plans are all
// reused, and the commit replays the recorded merge). The gate
//
//	BENCH_STEADY=1 go test -run TestSteadyBenchArtifact .
//
// enforces the steady-state contract: warm CG and Jacobi iterations
// allocate nothing and run at least 1.5x (CG) and 1.25x (Jacobi) faster
// than cold ones.
package ppm_test

import (
	"os"
	"testing"

	"ppm/internal/core"
	"ppm/internal/machine"
	"ppm/internal/sparse"
)

// steadyCG runs b.N warm-loop iterations of the Figure-1 CG SpMV phase
// (27-point stencil columns gathered through ReadBlock) at 4 nodes with
// everything loop-invariant hoisted: the Do body, the phase closure
// targets. Each row is generated, as cg.RunPPM does: its runs and
// diagonal come from the grid into fixed per-VP arrays. With the plan
// cache on, every iteration after the warmup replays its recorded plan.
func steadyCG(b *testing.B, cache bool) {
	o := core.Options{Nodes: 4, Machine: machine.Franklin(), NoPlanCache: !cache}
	const nx, ny, nz = 8, 8, 16
	_, err := core.Run(o, func(rt *core.Runtime) {
		n := nx * ny * nz
		p := core.AllocGlobal[float64](rt, "steady.p", n)
		lo, hi := p.OwnerRange(rt)
		nLocal := hi - lo
		w := core.AllocNode[float64](rt, "steady.w", n/rt.NodeCount()+1)
		pl := p.Local(rt)
		for i := range pl {
			pl[i] = float64(lo+i) * 1e-3
		}
		k := rt.CoresPerNode() * 4
		body := func(vp *core.VP) {
			vp.GlobalPhase(func() {
				vlo, vhi := core.ChunkRange(nLocal, k, vp.NodeRank())
				var runBuf [9]sparse.ColRun
				var buf [27]float64
				for row := vlo; row < vhi; row++ {
					runs, diag := sparse.Stencil27RowRuns(nx, ny, nz, lo+row, runBuf[:0])
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
					w.Write(vp, row, s)
				}
			})
		}
		// Warm up: record the plan, grow every scratch buffer to its
		// high-water mark.
		for i := 0; i < 3; i++ {
			rt.Do(k, body)
		}
		rt.Barrier()
		if rt.NodeID() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for it := 0; it < b.N; it++ {
			rt.Do(k, body)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// steadyJacobi runs b.N warm-loop iterations of a 1-D Jacobi sweep
// phase at 4 nodes: each VP gathers its chunk plus a one-element halo
// (crossing a partition boundary at the chunk edges) and writes the
// smoothed chunk back as one block.
func steadyJacobi(b *testing.B, cache bool) {
	o := core.Options{Nodes: 4, Machine: machine.Franklin(), NoPlanCache: !cache}
	const n = 4096
	_, err := core.Run(o, func(rt *core.Runtime) {
		u := core.AllocGlobal[float64](rt, "steady.u", n)
		lo, hi := u.OwnerRange(rt)
		nLocal := hi - lo
		ul := u.Local(rt)
		for i := range ul {
			ul[i] = float64(lo + i)
		}
		k := rt.CoresPerNode() * 4
		bufs := make([][]float64, k)
		outs := make([][]float64, k)
		for i := range bufs {
			vlo, vhi := core.ChunkRange(nLocal, k, i)
			bufs[i] = make([]float64, vhi-vlo+2)
			outs[i] = make([]float64, vhi-vlo)
		}
		body := func(vp *core.VP) {
			vp.GlobalPhase(func() {
				r := vp.NodeRank()
				vlo, vhi := core.ChunkRange(nLocal, k, r)
				glo, ghi := lo+vlo, lo+vhi
				if glo == ghi {
					return
				}
				flo, fhi := glo-1, ghi+1
				if flo < 0 {
					flo = 0
				}
				if fhi > n {
					fhi = n
				}
				buf := bufs[r][: fhi-flo : fhi-flo]
				u.ReadBlock(vp, flo, fhi, buf)
				out := outs[r]
				for i := glo; i < ghi; i++ {
					c := buf[i-flo]
					l, rr := c, c
					if i > 0 {
						l = buf[i-1-flo]
					}
					if i < n-1 {
						rr = buf[i+1-flo]
					}
					out[i-glo] = 0.25*l + 0.5*c + 0.25*rr
				}
				u.WriteBlock(vp, glo, out)
			})
		}
		for i := 0; i < 3; i++ {
			rt.Do(k, body)
		}
		rt.Barrier()
		if rt.NodeID() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for it := 0; it < b.N; it++ {
			rt.Do(k, body)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSteadyCG(b *testing.B) {
	b.Run("cold", func(b *testing.B) { steadyCG(b, false) })
	b.Run("warm", func(b *testing.B) { steadyCG(b, true) })
}

func BenchmarkSteadyJacobi(b *testing.B) {
	b.Run("cold", func(b *testing.B) { steadyJacobi(b, false) })
	b.Run("warm", func(b *testing.B) { steadyJacobi(b, true) })
}

// TestSteadyBenchArtifact enforces the steady-state contract: warm
// iterations of the CG and Jacobi phase benchmarks allocate nothing and
// beat cold by at least 1.5x and 1.25x. Jacobi's bar is the lower one
// because its phase body (a block read, the sweep and a block write per
// VP, the same work cold and warm) is 60% of the CPU samples of a warm
// iteration, so the cache has the other 40% to win from: cold measures
// 1.35x to 1.6x warm. Gated behind an environment variable so routine
// test runs stay fast (`make bench-steady`).
func TestSteadyBenchArtifact(t *testing.T) {
	if os.Getenv("BENCH_STEADY") == "" {
		t.Skip("set BENCH_STEADY=1 (or run `make bench-steady`) for the steady-state gate")
	}
	for _, kn := range []struct {
		name string
		f    func(*testing.B, bool)
		bar  float64 // least cold/warm ratio
	}{
		{"steady_cg_phase", steadyCG, 1.5},
		{"steady_jacobi_phase", steadyJacobi, 1.25},
	} {
		cold := testing.Benchmark(func(b *testing.B) { kn.f(b, false) })
		warm := testing.Benchmark(func(b *testing.B) { kn.f(b, true) })
		coldNs := float64(cold.T.Nanoseconds()) / float64(cold.N)
		warmNs := float64(warm.T.Nanoseconds()) / float64(warm.N)
		t.Logf("%-20s cold %10.1f ns/op %6d allocs/op   warm %10.1f ns/op %6d allocs/op",
			kn.name, coldNs, cold.AllocsPerOp(), warmNs, warm.AllocsPerOp())
		if warm.AllocsPerOp() != 0 {
			t.Errorf("%s: warm iterations allocate %d allocs/op (%d B/op), want 0",
				kn.name, warm.AllocsPerOp(), warm.AllocedBytesPerOp())
		}
		if ratio := coldNs / warmNs; ratio < kn.bar {
			t.Errorf("%s: warm is only %.2fx faster than cold (cold %.0f ns/op, warm %.0f ns/op), want >= %.2fx",
				kn.name, ratio, coldNs, warmNs, kn.bar)
		}
	}
}
