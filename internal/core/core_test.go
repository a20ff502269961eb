package core

import (
	"fmt"
	"strings"
	"testing"

	"ppm/internal/machine"
)

func opts(nodes int) Options {
	return Options{Nodes: nodes, Machine: machine.Generic()}
}

func mustRun(t *testing.T, o Options, prog func(rt *Runtime)) *Report {
	t.Helper()
	rep, err := Run(o, prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Nodes: 0}, func(rt *Runtime) {}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := Run(Options{Nodes: 1, CoresPerNode: -1}, func(rt *Runtime) {}); err == nil {
		t.Error("negative cores accepted")
	}
	if _, err := Run(Options{Nodes: 1, BundleBytes: -5}, func(rt *Runtime) {}); err == nil {
		t.Error("negative bundle size accepted")
	}
}

func TestSystemVariables(t *testing.T) {
	mustRun(t, opts(3), func(rt *Runtime) {
		if rt.NodeCount() != 3 {
			panic("NodeCount")
		}
		if rt.NodeID() < 0 || rt.NodeID() >= 3 {
			panic("NodeID")
		}
		if rt.CoresPerNode() != 4 {
			panic("CoresPerNode")
		}
	})
}

func TestDoRanks(t *testing.T) {
	const K = 10
	seen := make(map[int][]int)
	mustRun(t, opts(2), func(rt *Runtime) {
		ranks := AllocNode[int64](rt, "ranks", K)
		rt.Do(K, func(vp *VP) {
			if vp.K() != K || vp.Node() != rt.NodeID() || vp.Nodes() != 2 || vp.Cores() != 4 {
				panic("VP system variables wrong")
			}
			vp.NodePhase(func() {
				ranks.Write(vp, vp.NodeRank(), int64(vp.NodeRank()))
			})
		})
		local := ranks.Local(rt)
		got := make([]int, K)
		for i, v := range local {
			got[i] = int(v)
		}
		seen[rt.NodeID()] = got
	})
	for node, got := range seen {
		for i, v := range got {
			if v != i {
				t.Errorf("node %d rank slot %d = %d", node, i, v)
			}
		}
	}
}

func TestDoErrors(t *testing.T) {
	if _, err := Run(opts(1), func(rt *Runtime) { rt.Do(0, func(vp *VP) {}) }); err == nil || !strings.Contains(err.Error(), "K >= 1") {
		t.Errorf("Do(0): %v", err)
	}
	if _, err := Run(opts(1), func(rt *Runtime) { rt.Do(1, nil) }); err == nil || !strings.Contains(err.Error(), "nil body") {
		t.Errorf("Do(nil): %v", err)
	}
	if _, err := Run(opts(1), func(rt *Runtime) {
		rt.Do(1, func(vp *VP) {})
		rt.Do(2, func(vp *VP) { rt.Do(1, func(*VP) {}) })
	}); err == nil || !strings.Contains(err.Error(), "nested Do") {
		t.Errorf("nested Do: %v", err)
	}
}

// The core invariant: within a phase, reads observe begin-of-phase
// values; writes take effect only after the phase.
func TestPhaseReadSemantics(t *testing.T) {
	mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "x", 8)
		for i := range g.Local(rt) {
			g.Local(rt)[i] = 1
		}
		rt.Do(4, func(vp *VP) {
			vp.GlobalPhase(func() {
				i := vp.GlobalRank()
				if got := g.Read(vp, i); got != 1 {
					panic(fmt.Sprintf("pre-write read = %v, want 1", got))
				}
				g.Write(vp, i, 2)
				if got := g.Read(vp, i); got != 1 {
					panic(fmt.Sprintf("own write visible within phase: %v", got))
				}
			})
			vp.GlobalPhase(func() {
				i := vp.GlobalRank()
				if got := g.Read(vp, i); got != 2 {
					panic(fmt.Sprintf("post-phase read = %v, want 2", got))
				}
			})
		})
	})
}

// Cross-node writes become visible to all nodes in the next phase.
func TestCrossNodeWriteVisibility(t *testing.T) {
	const nodes = 4
	mustRun(t, opts(nodes), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "ring", nodes)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() {
				// Each node writes into the NEXT node's slot.
				dst := (vp.Node() + 1) % nodes
				g.Write(vp, dst, int64(100+vp.Node()))
			})
			vp.GlobalPhase(func() {
				// Read own slot: must hold previous node's write.
				want := int64(100 + (vp.Node()+nodes-1)%nodes)
				if got := g.Read(vp, vp.Node()); got != want {
					panic(fmt.Sprintf("node %d got %d want %d", vp.Node(), got, want))
				}
			})
		})
	})
}

func TestAddCombines(t *testing.T) {
	mustRun(t, opts(3), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "acc", 1)
		rt.Do(5, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Add(vp, 0, 1)
				g.Add(vp, 0, 1)
			})
		})
		if rt.NodeID() == 0 {
			if got := g.At(rt, 0); got != 30 { // 3 nodes * 5 VPs * 2 adds
				panic(fmt.Sprintf("Add total = %d, want 30", got))
			}
		}
	})
}

// Conflicting plain writes resolve deterministically: last writer in
// (node, VP) order wins.
func TestLastWriterWinsOrder(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		mustRun(t, opts(3), func(rt *Runtime) {
			g := AllocGlobal[int64](rt, "w", 1)
			rt.Do(4, func(vp *VP) {
				vp.GlobalPhase(func() {
					g.Write(vp, 0, int64(1000*vp.Node()+vp.NodeRank()))
				})
			})
			rt.Barrier()
			if got := g.At(rt, 0); got != 2003 { // node 2, VP 3 applies last
				panic(fmt.Sprintf("winner = %d, want 2003", got))
			}
		})
	}
}

func TestNodeArrayIndependentPerNode(t *testing.T) {
	sums := make([]int64, 3)
	mustRun(t, opts(3), func(rt *Runtime) {
		a := AllocNode[int64](rt, "na", 4)
		rt.Do(4, func(vp *VP) {
			vp.NodePhase(func() {
				a.Write(vp, vp.NodeRank(), int64((rt.NodeID()+1)*10+vp.NodeRank()))
			})
		})
		var s int64
		for _, v := range a.Local(rt) {
			s += v
		}
		sums[rt.NodeID()] = s
	})
	for node, s := range sums {
		want := int64(4*(node+1)*10 + 6)
		if s != want {
			t.Errorf("node %d sum = %d, want %d", node, s, want)
		}
	}
}

func TestNodePhaseRejectsRemoteAccess(t *testing.T) {
	_, err := Run(opts(2), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "g", 10)
		rt.Do(1, func(vp *VP) {
			vp.NodePhase(func() {
				g.Read(vp, 9-9*vp.Node()) // remote for both nodes
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "remote access") {
		t.Errorf("expected remote-access error, got %v", err)
	}
}

// TestAccessOutsidePhasePanics: every VP accessor of Global, Node and
// Global2D panics outside a phase, the zero-length block forms included
// (an empty ReadBlock or WriteBlock is still a shared access in the wrong
// place). This check is the whole guarantee: no static rule repeats it.
func TestAccessOutsidePhasePanics(t *testing.T) {
	type arrays struct {
		g  *Global[float64]
		n  *Node[float64]
		g2 *Global2D[float64]
	}
	buf := make([]float64, 2)
	for _, c := range []struct {
		name, op string
		call     func(vp *VP, a arrays)
	}{
		{"Global.Read", "Read", func(vp *VP, a arrays) { a.g.Read(vp, 0) }},
		{"Global.Write", "Write", func(vp *VP, a arrays) { a.g.Write(vp, 0, 1) }},
		{"Global.Add", "Write", func(vp *VP, a arrays) { a.g.Add(vp, 0, 1) }},
		{"Global.ReadBlock", "Read", func(vp *VP, a arrays) { a.g.ReadBlock(vp, 0, 2, buf) }},
		{"Global.ReadBlock/empty", "Read", func(vp *VP, a arrays) { a.g.ReadBlock(vp, 1, 1, nil) }},
		{"Global.WriteBlock", "Write", func(vp *VP, a arrays) { a.g.WriteBlock(vp, 0, buf) }},
		{"Global.WriteBlock/empty", "Write", func(vp *VP, a arrays) { a.g.WriteBlock(vp, 1, nil) }},
		{"Global.AddBlock", "Write", func(vp *VP, a arrays) { a.g.AddBlock(vp, 0, buf) }},
		{"Global.AddBlock/empty", "Write", func(vp *VP, a arrays) { a.g.AddBlock(vp, 1, nil) }},
		{"Node.Read", "Read", func(vp *VP, a arrays) { a.n.Read(vp, 0) }},
		{"Node.Write", "Write", func(vp *VP, a arrays) { a.n.Write(vp, 0, 1) }},
		{"Node.Add", "Write", func(vp *VP, a arrays) { a.n.Add(vp, 0, 1) }},
		{"Node.ReadBlock", "Read", func(vp *VP, a arrays) { a.n.ReadBlock(vp, 0, 2, buf) }},
		{"Node.ReadBlock/empty", "Read", func(vp *VP, a arrays) { a.n.ReadBlock(vp, 1, 1, nil) }},
		{"Node.WriteBlock", "Write", func(vp *VP, a arrays) { a.n.WriteBlock(vp, 0, buf) }},
		{"Node.WriteBlock/empty", "Write", func(vp *VP, a arrays) { a.n.WriteBlock(vp, 1, nil) }},
		{"Node.AddBlock", "Write", func(vp *VP, a arrays) { a.n.AddBlock(vp, 0, buf) }},
		{"Node.AddBlock/empty", "Write", func(vp *VP, a arrays) { a.n.AddBlock(vp, 1, nil) }},
		{"Global2D.Read", "Read", func(vp *VP, a arrays) { a.g2.Read(vp, 0, 0) }},
		{"Global2D.Write", "Write", func(vp *VP, a arrays) { a.g2.Write(vp, 0, 0, 1) }},
		{"Global2D.Add", "Write", func(vp *VP, a arrays) { a.g2.Add(vp, 0, 0, 1) }},
	} {
		_, err := Run(opts(1), func(rt *Runtime) {
			a := arrays{
				g:  AllocGlobal[float64](rt, "g", 4),
				n:  AllocNode[float64](rt, "n", 4),
				g2: AllocGlobal2D[float64](rt, "g2", 2, 2),
			}
			rt.Do(1, func(vp *VP) { c.call(vp, a) })
		})
		if err == nil || !strings.Contains(err.Error(), c.op+" of shared") || !strings.Contains(err.Error(), "outside a phase") {
			t.Errorf("%s outside a phase: got %v, want a %s outside-phase error", c.name, err, c.op)
		}
	}
}

func TestNestedPhasePanics(t *testing.T) {
	_, err := Run(opts(1), func(rt *Runtime) {
		rt.Do(1, func(vp *VP) {
			vp.NodePhase(func() {
				vp.NodePhase(func() {})
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "nested phase") {
		t.Errorf("expected nested-phase error, got %v", err)
	}
}

func TestPhaseShapeMismatch(t *testing.T) {
	_, err := Run(opts(1), func(rt *Runtime) {
		rt.Do(2, func(vp *VP) {
			if vp.NodeRank() == 0 {
				vp.NodePhase(func() {})
			} else {
				vp.GlobalPhase(func() {})
			}
		})
	})
	if err == nil || !strings.Contains(err.Error(), "phase shape mismatch") {
		t.Errorf("expected shape-mismatch error, got %v", err)
	}
}

func TestVPPanicPropagates(t *testing.T) {
	_, err := Run(opts(2), func(rt *Runtime) {
		rt.Do(3, func(vp *VP) {
			vp.GlobalPhase(func() {
				if vp.Node() == 1 && vp.NodeRank() == 2 {
					panic("kaboom")
				}
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("expected VP panic error, got %v", err)
	}
}

func TestStrictWritesDetectsConflicts(t *testing.T) {
	o := opts(2)
	o.StrictWrites = true
	_, err := Run(o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "c", 1)
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Write(vp, 0, int64(vp.NodeRank()))
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Errorf("expected conflict error, got %v", err)
	}
}

func TestStrictWritesAllowsAddAndDisjoint(t *testing.T) {
	o := opts(2)
	o.StrictWrites = true
	mustRun(t, o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "c", 8)
		s := AllocGlobal[int64](rt, "s", 1)
		a := AllocNode[int64](rt, "n", 8)
		rt.Do(4, func(vp *VP) {
			vp.GlobalPhase(func() {
				s.Add(vp, 0, 1)                 // adds combine, never conflict
				g.Write(vp, vp.GlobalRank(), 1) // disjoint writes
			})
			vp.NodePhase(func() {
				a.Write(vp, vp.NodeRank(), 1)
			})
			// A second phase may rewrite the same elements.
			vp.GlobalPhase(func() {
				g.Write(vp, vp.GlobalRank(), 2)
			})
		})
	})
}

func TestStrictWritesNodeArrayConflict(t *testing.T) {
	o := opts(1)
	o.StrictWrites = true
	_, err := Run(o, func(rt *Runtime) {
		a := AllocNode[int64](rt, "n", 1)
		rt.Do(2, func(vp *VP) {
			vp.NodePhase(func() { a.Write(vp, 0, 7) })
		})
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Errorf("expected node-array conflict error, got %v", err)
	}
}

func TestGlobalRank(t *testing.T) {
	mustRun(t, opts(3), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "gr", 3*5)
		rt.Do(5, func(vp *VP) {
			vp.GlobalPhase(func() {
				if vp.GlobalK() != 15 {
					panic("GlobalK wrong")
				}
				g.Write(vp, vp.GlobalRank(), 1)
			})
		})
		if rt.NodeID() == 0 {
			for i := 0; i < 15; i++ {
				if g.At(rt, i) != 1 {
					panic(fmt.Sprintf("global rank %d unwritten or duplicated", i))
				}
			}
		}
	})
}

func TestAllocMismatchDetected(t *testing.T) {
	_, err := Run(opts(2), func(rt *Runtime) {
		if rt.NodeID() == 0 {
			AllocGlobal[float64](rt, "a", 4)
		} else {
			rt.Barrier() // let node 0 allocate first
			AllocGlobal[float64](rt, "b", 4)
		}
		if rt.NodeID() == 0 {
			rt.Barrier()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("expected divergence error, got %v", err)
	}
}

func TestAllocInsideDoPanics(t *testing.T) {
	_, err := Run(opts(1), func(rt *Runtime) {
		rt.Do(1, func(vp *VP) { AllocGlobal[float64](rt, "x", 1) })
	})
	if err == nil || !strings.Contains(err.Error(), "node level") {
		t.Errorf("expected node-level alloc error, got %v", err)
	}
}

func TestLocalWhileDoPanics(t *testing.T) {
	_, err := Run(opts(1), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "x", 4)
		rt.Do(1, func(vp *VP) { g.Local(rt) })
	})
	if err == nil || !strings.Contains(err.Error(), "while Do is active") {
		t.Errorf("expected Local-in-Do error, got %v", err)
	}
}

func TestUtilities(t *testing.T) {
	mustRun(t, opts(4), func(rt *Runtime) {
		if got := rt.AllReduce(float64(rt.NodeID()+1), OpSum); got != 10 {
			panic(fmt.Sprintf("AllReduce sum = %v", got))
		}
		if got := rt.AllReduce(float64(rt.NodeID()), OpMax); got != 3 {
			panic(fmt.Sprintf("AllReduce max = %v", got))
		}
		if got := rt.AllReduce(float64(rt.NodeID()), OpMin); got != 0 {
			panic(fmt.Sprintf("AllReduce min = %v", got))
		}
		if got := rt.AllReduceInt(int64(rt.NodeID()), OpSum); got != 6 {
			panic(fmt.Sprintf("AllReduceInt = %v", got))
		}
		if got := rt.PrefixSumInt(rt.NodeID() + 1); got != rt.NodeID()*(rt.NodeID()+1)/2 {
			panic(fmt.Sprintf("PrefixSumInt = %v", got))
		}
		if got := rt.Broadcast(2, float64(rt.NodeID())*7); got != 14 {
			panic(fmt.Sprintf("Broadcast = %v", got))
		}
	})
}

func TestUtilitiesRejectedInsideDo(t *testing.T) {
	_, err := Run(opts(1), func(rt *Runtime) {
		rt.Do(1, func(vp *VP) { rt.AllReduce(1, OpSum) })
	})
	if err == nil || !strings.Contains(err.Error(), "node-level collective") {
		t.Errorf("expected node-level collective error, got %v", err)
	}
}

func TestChunkRange(t *testing.T) {
	covered := make([]int, 10)
	for p := 0; p < 3; p++ {
		lo, hi := ChunkRange(10, 3, p)
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}
	if lo, hi := ChunkRange(2, 4, 3); lo != hi {
		t.Errorf("empty chunk expected, got [%d,%d)", lo, hi)
	}
}

func TestStatsCounts(t *testing.T) {
	rep := mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "s", 16)
		rt.Do(4, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Read(vp, vp.GlobalRank())
				g.Write(vp, vp.GlobalRank(), 1)
			})
			vp.NodePhase(func() {})
		})
	})
	if rep.Totals.Dos != 2 || rep.Totals.VPsStarted != 8 {
		t.Errorf("Dos/VPs: %+v", rep.Totals)
	}
	if rep.Totals.GlobalPhases != 2 || rep.Totals.NodePhases != 2 {
		t.Errorf("phase counts: %+v", rep.Totals)
	}
	if rep.Totals.SharedReads != 8 || rep.Totals.SharedWrites != 8 {
		t.Errorf("access counts: %+v", rep.Totals)
	}
}

func TestRemoteTrafficCounted(t *testing.T) {
	rep := mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "r", 16) // node0: 0..7, node1: 8..15
		rt.Do(4, func(vp *VP) {
			vp.GlobalPhase(func() {
				remote := (1 - vp.Node()) * 8 // an index on the other node
				g.Read(vp, remote+vp.NodeRank())
				g.Write(vp, remote+vp.NodeRank(), 1)
			})
		})
	})
	if rep.Totals.RemoteReadElems != 8 {
		t.Errorf("remote reads = %d, want 8", rep.Totals.RemoteReadElems)
	}
	if rep.Totals.RemoteWriteElems != 8 {
		t.Errorf("remote writes = %d, want 8", rep.Totals.RemoteWriteElems)
	}
	if rep.Totals.BundlesOut == 0 || rep.Totals.BundlesIn == 0 {
		t.Errorf("bundles not counted: %+v", rep.Totals)
	}
}

func TestReadCacheDedupesRemoteReads(t *testing.T) {
	run := func(noCache bool) int64 {
		o := opts(2)
		o.NoReadCache = noCache
		rep := mustRun(t, o, func(rt *Runtime) {
			g := AllocGlobal[float64](rt, "rc", 16)
			rt.Do(2, func(vp *VP) {
				vp.GlobalPhase(func() {
					remote := (1 - vp.Node()) * 8
					for rep := 0; rep < 5; rep++ {
						g.Read(vp, remote) // same remote element 5 times
					}
				})
				vp.GlobalPhase(func() {
					g.Read(vp, (1-vp.Node())*8) // new phase: fresh fetch
				})
			})
		})
		return rep.Totals.RemoteReadElems
	}
	// Node-level cache: each node fetches the one remote element once per
	// phase, no matter how many VPs read it.
	if got := run(false); got != 2*2 { // 2 nodes x 2 phases
		t.Errorf("cached remote reads = %d, want 4", got)
	}
	if got := run(true); got != 2*2*(5+1) {
		t.Errorf("uncached remote reads = %d, want 24", got)
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() string {
		rep := mustRun(t, opts(4), func(rt *Runtime) {
			g := AllocGlobal[float64](rt, "d", 64)
			rt.Do(8, func(vp *VP) {
				for iter := 0; iter < 3; iter++ {
					vp.GlobalPhase(func() {
						i := vp.GlobalRank()
						v := g.Read(vp, (i*7+iter)%64)
						g.Write(vp, i, v+1)
						vp.ChargeFlops(100)
					})
				}
			})
		})
		return fmt.Sprintf("%v|%v", rep.Makespan(), rep)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic run:\n%s\n%s", a, b)
	}
}

// The runtime optimizations must move modeled time in the documented
// directions (these are the paper's §3.3 claims; full ablations live in
// the benchmarks).
func TestBundlingReducesTime(t *testing.T) {
	run := func(noBundling bool) float64 {
		o := Options{Nodes: 4, Machine: machine.Franklin(), NoBundling: noBundling}
		rep := mustRun(t, o, func(rt *Runtime) {
			g := AllocGlobal[float64](rt, "b", 4096)
			rt.Do(64, func(vp *VP) {
				vp.GlobalPhase(func() {
					// Scattered remote reads.
					for j := 0; j < 16; j++ {
						g.Read(vp, (vp.GlobalRank()*97+j*131)%4096)
					}
				})
			})
		})
		return rep.Makespan().Seconds()
	}
	bundled, naive := run(false), run(true)
	if !(bundled < naive) {
		t.Errorf("bundling should reduce time: bundled=%v naive=%v", bundled, naive)
	}
}

func TestOverlapReducesTime(t *testing.T) {
	run := func(noOverlap bool) float64 {
		o := Options{Nodes: 4, Machine: machine.Franklin(), NoOverlap: noOverlap}
		rep := mustRun(t, o, func(rt *Runtime) {
			g := AllocGlobal[float64](rt, "o", 4096)
			rt.Do(64, func(vp *VP) {
				vp.GlobalPhase(func() {
					for j := 0; j < 32; j++ {
						g.Read(vp, (vp.GlobalRank()*31+j*911)%4096)
					}
					vp.ChargeFlops(20000)
				})
			})
		})
		return rep.Makespan().Seconds()
	}
	overlap, serial := run(false), run(true)
	if !(overlap < serial) {
		t.Errorf("overlap should reduce time: overlap=%v serial=%v", overlap, serial)
	}
}

func TestMoreCoresReduceComputeTime(t *testing.T) {
	run := func(cores int) float64 {
		o := Options{Nodes: 2, Machine: machine.Generic(), CoresPerNode: cores}
		rep := mustRun(t, o, func(rt *Runtime) {
			rt.Do(64, func(vp *VP) {
				vp.NodePhase(func() { vp.ChargeFlops(1e6) })
			})
		})
		return rep.Makespan().Seconds()
	}
	if !(run(8) < run(2)) {
		t.Error("more cores should reduce phase compute time")
	}
}

func TestStaticScheduleSlowerOnImbalance(t *testing.T) {
	run := func(static bool) float64 {
		o := Options{Nodes: 1, Machine: machine.Generic(), StaticSchedule: static}
		rep := mustRun(t, o, func(rt *Runtime) {
			rt.Do(16, func(vp *VP) {
				vp.NodePhase(func() {
					// All heavy work lands in the first contiguous block.
					if vp.NodeRank() < 4 {
						vp.ChargeFlops(1e7)
					}
				})
			})
		})
		return rep.Makespan().Seconds()
	}
	dynamic, static := run(false), run(true)
	if !(dynamic < static) {
		t.Errorf("dynamic schedule should beat static on imbalance: %v vs %v", dynamic, static)
	}
}

// Different K per node and node-only phases: the paper's asynchronous
// mode.
func TestAsynchronousNodes(t *testing.T) {
	mustRun(t, opts(3), func(rt *Runtime) {
		k := 2 + rt.NodeID()*3
		a := AllocNode[int64](rt, "async", 16)
		rt.Do(k, func(vp *VP) {
			vp.NodePhase(func() {
				a.Add(vp, 0, 1)
			})
		})
		if got := a.Local(rt)[0]; got != int64(k) {
			panic(fmt.Sprintf("node %d: %d adds, want %d", rt.NodeID(), got, k))
		}
	})
}

func TestBlockOps(t *testing.T) {
	mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "blk", 16)
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() {
				if vp.Node() == 0 && vp.NodeRank() == 0 {
					src := []int64{10, 11, 12, 13, 14, 15}
					g.WriteBlock(vp, 6, src) // spans both partitions
				}
			})
			vp.GlobalPhase(func() {
				dst := make([]int64, 6)
				g.ReadBlock(vp, 6, 12, dst)
				for i, v := range dst {
					if v != int64(10+i) {
						panic(fmt.Sprintf("block read [%d] = %d", i, v))
					}
				}
			})
		})
	})
	_, err := Run(opts(1), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "blk", 4)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() { g.ReadBlock(vp, 2, 8, make([]int64, 6)) })
		})
	})
	if err == nil || !strings.Contains(err.Error(), "out of") {
		t.Errorf("expected bounds error, got %v", err)
	}
	_, err = Run(opts(1), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "blk", 8)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() { g.ReadBlock(vp, 0, 4, make([]int64, 2)) })
		})
	})
	if err == nil || !strings.Contains(err.Error(), "dst holds") {
		t.Errorf("expected dst error, got %v", err)
	}
}

// Virtualization stress: the model's premise is an "unbounded number of
// virtual processors"; the coordinator must comfortably run tens of
// thousands of VPs through phases.
func TestManyVPs(t *testing.T) {
	const k = 50000
	rep := mustRun(t, opts(1), func(rt *Runtime) {
		acc := AllocNode[int64](rt, "acc", 1)
		rt.Do(k, func(vp *VP) {
			vp.NodePhase(func() {
				acc.Add(vp, 0, 1)
			})
			vp.NodePhase(func() {
				if vp.NodeRank() == 0 && acc.Read(vp, 0) != k {
					panic(fmt.Sprintf("phase-1 adds lost: %d", acc.Read(vp, 0)))
				}
			})
		})
	})
	if rep.Totals.VPsStarted != k {
		t.Errorf("VPs started: %d", rep.Totals.VPsStarted)
	}
}

// Paper §3.3: "the PPM function that is invoked can be different on
// different nodes ... using function pointers", with different K, working
// asynchronously via node phases.
func TestDifferentFunctionsPerNode(t *testing.T) {
	mustRun(t, opts(2), func(rt *Runtime) {
		a := AllocNode[int64](rt, "out", 8)
		producer := func(vp *VP) {
			vp.NodePhase(func() { a.Add(vp, 0, 2) })
		}
		consumer := func(vp *VP) {
			vp.NodePhase(func() { a.Add(vp, 1, 5) })
			vp.NodePhase(func() { a.Add(vp, 1, 5) })
		}
		if rt.NodeID() == 0 {
			rt.Do(3, producer)
			if a.Local(rt)[0] != 6 {
				panic("producer sum wrong")
			}
		} else {
			rt.Do(5, consumer)
			if a.Local(rt)[1] != 50 {
				panic("consumer sum wrong")
			}
		}
	})
}

func TestStrictCrossNodeConflict(t *testing.T) {
	o := opts(3)
	o.StrictWrites = true
	_, err := Run(o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "x", 3)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Write(vp, 1, int64(vp.Node())) // all three nodes hit element 1
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Errorf("expected cross-node conflict, got %v", err)
	}
}

// TestStrictCollectsAllConflicts checks that a strict run reports every
// conflicting element with full writer attribution, not only the first
// error it aborted with.
func TestStrictCollectsAllConflicts(t *testing.T) {
	o := opts(2)
	o.StrictWrites = true
	rep, err := Run(o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "g", 8)
		a := AllocNode[int64](rt, "n", 4)
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() {
				g.Write(vp, 0, 1) // all 4 VPs
				g.Write(vp, 5, 2) // all 4 VPs
			})
			vp.NodePhase(func() {
				a.Write(vp, 3, int64(vp.NodeRank())) // both VPs of each node
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Fatalf("expected conflict error, got %v", err)
	}
	byKey := map[string]WriteConflict{}
	for _, c := range rep.Conflicts {
		byKey[fmt.Sprintf("%s[%d]@%d", c.Array, c.Index, c.Node)] = c
	}
	// g[0] and g[5] conflict on their owner nodes; n[3] conflicts on
	// every node's instance.
	for _, want := range []string{"g[0]@0", "g[5]@1", "n[3]@0", "n[3]@1"} {
		if _, ok := byKey[want]; !ok {
			t.Errorf("missing conflict %s; got %v", want, rep.Conflicts)
		}
	}
	if len(byKey) != 4 {
		t.Errorf("got %d distinct conflicts, want 4: %v", len(byKey), rep.Conflicts)
	}
	// Four VPs wrote g[0]: attribution names all of them.
	if c := byKey["g[0]@0"]; len(c.Writers) != 4 {
		t.Errorf("g[0] attribution = %v, want all 4 writers", c.Writers)
	}
	for _, c := range rep.Conflicts {
		for _, w := range c.Writers {
			if w.Add {
				t.Errorf("conflict %v attributes an add; all updates were writes", c)
			}
		}
	}
}

// TestStrictCrossKindConflict checks that a combining AddBlock
// overlapping a plain WriteBlock on another node's VP is a conflict
// (the element's end-of-phase value would depend on apply order), while
// adds overlapping adds stay allowed.
func TestStrictCrossKindConflict(t *testing.T) {
	o := opts(2)
	o.StrictWrites = true
	rep, err := Run(o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "g", 16)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() {
				vals := []int64{1, 1, 1, 1}
				if vp.Node() == 0 {
					g.WriteBlock(vp, 4, vals) // elements 4..7
				} else {
					g.AddBlock(vp, 6, vals) // elements 6..9: overlaps 6,7
				}
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "conflicting writes") {
		t.Fatalf("expected cross-kind conflict, got %v", err)
	}
	if len(rep.Conflicts) != 2 {
		t.Fatalf("got %d conflicts, want 2 (elements 6 and 7): %v", len(rep.Conflicts), rep.Conflicts)
	}
	for _, c := range rep.Conflicts {
		if c.Array != "g" || (c.Index != 6 && c.Index != 7) {
			t.Errorf("unexpected conflict %v", c)
		}
		var adds, writes int
		for _, w := range c.Writers {
			if w.Add {
				adds++
			} else {
				writes++
			}
		}
		if adds != 1 || writes != 1 {
			t.Errorf("conflict %v: want one add and one write attributed", c)
		}
	}

	// The same overlap with adds on both sides is fine.
	o = opts(2)
	o.StrictWrites = true
	rep = mustRun(t, o, func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "g", 16)
		rt.Do(1, func(vp *VP) {
			vp.GlobalPhase(func() {
				vals := []int64{1, 1, 1, 1}
				if vp.Node() == 0 {
					g.AddBlock(vp, 4, vals)
				} else {
					g.AddBlock(vp, 6, vals)
				}
			})
		})
	})
	if len(rep.Conflicts) != 0 {
		t.Errorf("add/add overlap reported conflicts: %v", rep.Conflicts)
	}
}

func TestSequentialDosShareState(t *testing.T) {
	mustRun(t, opts(2), func(rt *Runtime) {
		g := AllocGlobal[int64](rt, "seq", 4)
		for round := 0; round < 5; round++ {
			rt.Do(1, func(vp *VP) {
				vp.GlobalPhase(func() { g.Add(vp, 0, 1) })
			})
		}
		rt.Barrier()
		if rt.NodeID() == 0 && g.At(rt, 0) != 10 {
			panic(fmt.Sprintf("accumulated %d, want 10", g.At(rt, 0)))
		}
	})
}

// Section 5 of the paper: parallel binary search of B's elements in a
// sorted global array A, one VP per element of B.
func TestPaperBinarySearchExample(t *testing.T) {
	const N, K = 1024, 64
	results := make([][]int64, 4) // indexed by node: disjoint slots, parallel-scheduler safe
	mustRun(t, opts(4), func(rt *Runtime) {
		A := AllocGlobal[float64](rt, "A", N)
		B := AllocNode[float64](rt, "B", K)
		rankInA := AllocNode[int64](rt, "rank_in_A", K)
		// Node-level initialization: A sorted, B per node.
		lo, hi := A.OwnerRange(rt)
		for i := lo; i < hi; i++ {
			A.Local(rt)[i-lo] = float64(2 * i) // A[i] = 2i, sorted
		}
		for j := 0; j < K; j++ {
			B.Local(rt)[j] = float64(2*((j*37+rt.NodeID()*11)%N) + 1) // odd: falls between
		}
		rt.Do(K, func(vp *VP) {
			vp.GlobalPhase(func() {
				b := B.Read(vp, vp.NodeRank())
				left, right := 0, N
				for left+1 < right {
					middle := (left + right) / 2
					if A.Read(vp, middle) < b {
						left = middle
					} else {
						right = middle
					}
				}
				rankInA.Write(vp, vp.NodeRank(), int64(right))
			})
		})
		results[rt.NodeID()] = append([]int64(nil), rankInA.Local(rt)...)
	})
	for node, rs := range results {
		for j, r := range rs {
			wantVal := 2*((j*37+node*11)%1024) + 1
			want := int64(wantVal/2 + 1) // first index with A[i] >= b
			if r != want {
				t.Errorf("node %d key %d: rank %d, want %d", node, j, r, want)
			}
		}
	}
}

// TestSerialFromVPCode: every VP of every node bumps one host counter
// inside Serial, in and between phases, over three Dos (the second and
// third reuse the first one's workers), and node-level code bumps it
// too. The sections exclude each other (under -race an unordered pair
// is a reported race) on the sequential and the parallel scheduler
// alike; VP code used to reach the cooperative turn, which on the
// parallel scheduler only the node's own goroutine may take, and hung.
func TestSerialFromVPCode(t *testing.T) {
	const nodes, k, dos = 3, 8, 3
	for _, parallel := range []bool{false, true} {
		count := 0
		o := opts(nodes)
		o.Parallel = parallel
		mustRun(t, o, func(rt *Runtime) {
			rt.Serial(func() { count++ })
			for i := 0; i < dos; i++ {
				rt.Do(k, func(vp *VP) {
					rt.Serial(func() { count++ })
					vp.GlobalPhase(func() { rt.Serial(func() { count++ }) })
				})
			}
		})
		if want := nodes * (1 + 2*k*dos); count != want {
			t.Errorf("parallel=%v: count %d, want %d", parallel, count, want)
		}
	}
}
