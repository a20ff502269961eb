// Benchmarks regenerating the paper's evaluation artifacts.
//
// One benchmark per table and figure:
//
//   - BenchmarkFigure1CG        — Fig. 1, CG solver, PPM vs MPI per node count
//   - BenchmarkFigure2Colloc    — Fig. 2, collocation matrix generation
//   - BenchmarkFigure3BarnesHut — Fig. 3, Barnes-Hut simulation
//   - BenchmarkTable1CodeSize   — Table 1, code-size measurement
//   - BenchmarkSection5Search   — the Section 5 worked example
//
// plus ablation benchmarks for each optimization DESIGN.md calls out
// (bundling, overlap, read cache, dynamic VP scheduling, SmartMap, and
// the closing manycore claim).
//
// Every figure benchmark reports the modeled machine time as
// "sim-ms/run" next to the host ns/op; the figures' shapes live in the
// sim metric, and cmd/ppm-figures prints the full sweep tables.
package ppm_test

import (
	"fmt"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/search"
	"ppm/internal/bench"
	"ppm/internal/core"
	"ppm/internal/machine"
)

// benchNodes are the cluster sizes exercised per figure benchmark (the
// full 1..64 sweep is cmd/ppm-figures' job; benchmarks keep a
// representative low/mid/high trio).
var benchNodes = []int{1, 4, 16}

func reportSim(b *testing.B, simSeconds float64) {
	b.ReportMetric(simSeconds*1e3, "sim-ms/run")
}

func benchParams() (cg.Params, colloc.Params, nbody.Params) {
	cgP := cg.Params{NX: 16, NY: 16, NZ: 32, MaxIter: 10, Tol: 0}
	colP := colloc.Params{Levels: 6, M0: 8, Delta: 3}
	bhP := nbody.Params{N: 1500, Steps: 1, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 42}
	return cgP, colP, bhP
}

func BenchmarkFigure1CG(b *testing.B) {
	prm, _, _ := benchParams()
	for _, nodes := range benchNodes {
		b.Run(fmt.Sprintf("ppm/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := cg.RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
		b.Run(fmt.Sprintf("mpi/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := cg.RunMPI(cg.MPIOptions{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

func BenchmarkFigure2Colloc(b *testing.B) {
	_, prm, _ := benchParams()
	for _, nodes := range benchNodes {
		b.Run(fmt.Sprintf("ppm/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := colloc.RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
		b.Run(fmt.Sprintf("mpi/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := colloc.RunMPI(colloc.MPIOptions{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

func BenchmarkFigure3BarnesHut(b *testing.B) {
	_, _, prm := benchParams()
	for _, nodes := range benchNodes {
		b.Run(fmt.Sprintf("ppm/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := nbody.RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
		b.Run(fmt.Sprintf("mpi/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := nbody.RunMPI(nbody.MPIOptions{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

func BenchmarkTable1CodeSize(b *testing.B) {
	root, err := bench.RepoRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1CodeSizes(root)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkSection5Search(b *testing.B) {
	prm := search.Params{N: 1 << 18, K: 1 << 12, Seed: 42}
	for _, nodes := range benchNodes {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := search.RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
	}
}

// --- Ablations: the §3.3 runtime-design claims, each isolated. ---

func ablationOpt(nodes int, mutate func(*core.Options)) core.Options {
	o := core.Options{Nodes: nodes, Machine: machine.Franklin()}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

// ablate runs the collocation workload (random fine-grained reads) under
// the given option mutation and reports the simulated time.
func ablate(b *testing.B, mutate func(*core.Options)) {
	_, prm, _ := benchParams()
	var sim float64
	for i := 0; i < b.N; i++ {
		_, rep, err := colloc.RunPPM(ablationOpt(8, mutate), prm)
		if err != nil {
			b.Fatal(err)
		}
		sim = rep.Makespan().Seconds()
	}
	reportSim(b, sim)
}

func BenchmarkAblationBundling(b *testing.B) {
	b.Run("bundled", func(b *testing.B) { ablate(b, nil) })
	b.Run("per-element", func(b *testing.B) {
		ablate(b, func(o *core.Options) { o.NoBundling = true })
	})
}

func BenchmarkAblationOverlap(b *testing.B) {
	b.Run("overlapped", func(b *testing.B) { ablate(b, nil) })
	b.Run("serialized", func(b *testing.B) {
		ablate(b, func(o *core.Options) { o.NoOverlap = true })
	})
}

// BenchmarkAblationReadCache uses the CG workload: stencil halo elements
// are read by many rows, so the node-level cache collapses the remote
// volume. Both the simulated time and the remote traffic are reported.
func BenchmarkAblationReadCache(b *testing.B) {
	prm, _, _ := benchParams()
	for _, off := range []bool{false, true} {
		name := "cached"
		if off {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			var sim, mb float64
			for i := 0; i < b.N; i++ {
				o := ablationOpt(8, nil)
				o.NoReadCache = off
				_, rep, err := cg.RunPPM(o, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
				mb = float64(rep.Totals.BytesOut) / 1e6
			}
			reportSim(b, sim)
			b.ReportMetric(mb, "remote-MB/run")
		})
	}
}

func BenchmarkAblationSchedule(b *testing.B) {
	b.Run("dynamic", func(b *testing.B) { ablate(b, nil) })
	b.Run("static", func(b *testing.B) {
		ablate(b, func(o *core.Options) { o.StaticSchedule = true })
	})
}

// BenchmarkAblationSmartMap probes the paper's footnote 1: intra-node MPI
// messaging overhead with and without a SmartMap-style single-copy path.
func BenchmarkAblationSmartMap(b *testing.B) {
	prm, _, _ := benchParams()
	for _, smart := range []bool{false, true} {
		name := "plain"
		if smart {
			name = "smartmap"
		}
		b.Run(name, func(b *testing.B) {
			m := machine.Franklin()
			m.SmartMap = smart
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := cg.RunMPI(cg.MPIOptions{Nodes: 4, Machine: m}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

// BenchmarkAblationManycore probes the paper's closing claim: the benefit
// of PPM's node-level sharing should grow as cores per node increase far
// beyond Franklin's 4.
func BenchmarkAblationManycore(b *testing.B) {
	prm, _, _ := benchParams()
	for _, cores := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("ppm/cores=%d", cores), func(b *testing.B) {
			m := machine.Manycore(cores)
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := cg.RunPPM(core.Options{Nodes: 4, Machine: m}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
		b.Run(fmt.Sprintf("mpi/cores=%d", cores), func(b *testing.B) {
			m := machine.Manycore(cores)
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := cg.RunMPI(cg.MPIOptions{Nodes: 4, Machine: m}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

// BenchmarkSupplementaryJacobi is the structured counterpoint (DESIGN.md
// experiment S1): a regular stencil where message passing is on its home
// turf and PPM must merely stay within a small factor.
func BenchmarkSupplementaryJacobi(b *testing.B) {
	prm := jacobi.Params{NX: 16, NY: 16, NZ: 32, Sweeps: 8}
	for _, nodes := range benchNodes {
		b.Run(fmt.Sprintf("ppm/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := jacobi.RunPPM(core.Options{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan().Seconds()
			}
			reportSim(b, sim)
		})
		b.Run(fmt.Sprintf("mpi/nodes=%d", nodes), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rep, err := jacobi.RunMPI(jacobi.MPIOptions{Nodes: nodes, Machine: machine.Franklin()}, prm)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.Makespan.Seconds()
			}
			reportSim(b, sim)
		})
	}
}

// --- Host micro-benchmarks of the runtime machinery itself. ---

func BenchmarkRuntimePhaseRoundTrip(b *testing.B) {
	// Host cost of one Do with one phase across 16 VPs on one node.
	rep, err := core.Run(core.Options{Nodes: 1, Machine: machine.Generic()}, func(rt *core.Runtime) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Do(16, func(vp *core.VP) {
				vp.NodePhase(func() {})
			})
		}
	})
	_ = rep
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntimeSharedReadLocal(b *testing.B) {
	_, err := core.Run(core.Options{Nodes: 1, Machine: machine.Generic()}, func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "bench", 1024)
		b.ResetTimer()
		rt.Do(1, func(vp *core.VP) {
			vp.GlobalPhase(func() {
				for i := 0; i < b.N; i++ {
					g.Read(vp, i&1023)
				}
			})
		})
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntimeSharedWrite(b *testing.B) {
	_, err := core.Run(core.Options{Nodes: 1, Machine: machine.Generic()}, func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "bench", 1024)
		b.ResetTimer()
		rt.Do(1, func(vp *core.VP) {
			vp.GlobalPhase(func() {
				for i := 0; i < b.N; i++ {
					g.Write(vp, i&1023, 1)
				}
			})
		})
	})
	if err != nil {
		b.Fatal(err)
	}
}

// --- Hot-path benchmarks: block accessors vs element-wise loops. ---

// hotElems is the phase payload of the hot-path cycles: 8 rows of 1024
// elements, written/read through one Do+phase+commit per op.
const hotElems = 8192

func benchWriteCycle(b *testing.B, block bool) {
	_, err := core.Run(core.Options{Nodes: 1, Machine: machine.Generic()}, func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "hot.w", hotElems)
		row := make([]float64, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Do(1, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					if block {
						for r := 0; r < hotElems/1024; r++ {
							g.WriteBlock(vp, r*1024, row)
						}
					} else {
						for r := 0; r < hotElems/1024; r++ {
							for j := 0; j < 1024; j++ {
								g.Write(vp, r*1024+j, row[j])
							}
						}
					}
				})
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchReadCycle(b *testing.B, block bool) {
	_, err := core.Run(core.Options{Nodes: 1, Machine: machine.Generic()}, func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "hot.r", hotElems)
		row := make([]float64, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Do(1, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					if block {
						for r := 0; r < hotElems/1024; r++ {
							g.ReadBlock(vp, r*1024, (r+1)*1024, row)
						}
					} else {
						for r := 0; r < hotElems/1024; r++ {
							for j := 0; j < 1024; j++ {
								row[j] = g.Read(vp, r*1024+j)
							}
						}
					}
				})
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHotpathWriteCycle(b *testing.B) {
	b.Run("element", func(b *testing.B) { benchWriteCycle(b, false) })
	b.Run("block", func(b *testing.B) { benchWriteCycle(b, true) })
}

func BenchmarkHotpathReadCycle(b *testing.B) {
	b.Run("element", func(b *testing.B) { benchReadCycle(b, false) })
	b.Run("block", func(b *testing.B) { benchReadCycle(b, true) })
}
