// Package ppm is a Go implementation of the Parallel Phase Model (PPM),
// the parallel programming model for clusters of manycore nodes proposed
// in "Parallel Phase Model: A Programming Model for High-end Parallel
// Machines with Manycores" (Brightwell, Heroux, Wen, Wu; SAND2009-2287 /
// ICPP 2009), together with the deterministic cluster simulator the
// reproduction runs on.
//
// # The model
//
// A PPM program is SPMD over the nodes of a cluster: Run invokes your
// program once per node with a Runtime handle. On a node, Runtime.Do(K,
// body) starts K virtual processors (the paper's PPM_do construct); VP
// bodies contain global and node phases:
//
//	rt.Do(K, func(vp *ppm.VP) {
//		vp.GlobalPhase(func() {
//			v := a.Read(vp, i) // sees the value at the phase's beginning
//			b.Write(vp, j, v)  // takes effect after the phase's end
//		})
//	})
//
// Shared variables come in two kinds, mirroring the paper's declarations:
// AllocGlobal creates one PPM_global_shared array distributed across the
// cluster's virtual shared memory, and AllocNode creates one
// PPM_node_shared instance per node. Within a phase every read observes
// the begin-of-phase value and every write commits at the implicit
// barrier that ends the phase, so there are no data races by
// construction. The runtime owns the arrays' memory, and it lives as long
// as the run: a Global, a Node and any slice their Local returned are
// valid until Run returns. Copy outputs out inside the program; the
// storage goes back to the runtime when the run ends, and any later
// access to the array panics. The runtime bundles fine-grained remote accesses into
// coarse packages, overlaps them with computation, and serves repeated
// reads from a node-level cache — the optimizations the paper's runtime
// performs — each of which can be disabled in Options for ablation.
//
// # The machine
//
// Programs execute on a simulated distributed-memory machine: all Go code
// really runs (results are real), while time is charged against a
// LogGP-style cost model (see Machine and Franklin). Reports carry the
// modeled makespan and traffic statistics. Runs are deterministic: the
// same program and options produce bit-identical results and times.
package ppm

import (
	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/machine"
	"ppm/internal/trace"
	"ppm/internal/vtime"
)

// Options configures one PPM run. See the field docs in internal/core.
type Options = core.Options

// Runtime is a node's handle to the run: system variables
// (NodeID/NodeCount/CoresPerNode), Do, node-level utilities.
type Runtime = core.Runtime

// VP is a virtual processor handle, valid inside a Do body.
type VP = core.VP

// Report summarizes a completed run: modeled makespan, per-node
// statistics, communication totals.
type Report = core.Report

// NodeStats aggregates one node's runtime activity.
type NodeStats = core.NodeStats

// WriteConflict is one strict-mode conflict: a shared element updated
// incompatibly by more than one VP within a single phase. Report.Conflicts
// lists every one detected during a StrictWrites run.
type WriteConflict = core.WriteConflict

// WriterRef identifies one VP involved in a WriteConflict.
type WriterRef = core.WriterRef

// Hazard counts the stale reads or the writes around the commit, the two
// breaches of phase semantics a StrictWrites run finds besides write
// conflicts, of one array in one phase, and names the first few.
// Report.Hazards holds one per kind, array and phase.
type Hazard = core.Hazard

// HazardSite is where one hazard of a Hazard row lies.
type HazardSite = core.HazardSite

// HazardKind names what a Hazard records.
type HazardKind = core.HazardKind

// The kinds of Hazard.
const (
	StaleRead  = core.StaleRead
	LocalWrite = core.LocalWrite
)

// Global is a globally shared array (the paper's PPM_global_shared),
// block-distributed over the cluster. Besides the scalar Read/Write/Add
// accessors it offers ReadBlock, WriteBlock and AddBlock for contiguous
// ranges — semantically identical to the element-wise loops (same
// modeled costs and traffic) but far cheaper in host time. WriteBlock and
// AddBlock copy their source before returning, so the caller may reuse
// it at once.
type Global[T Elem] = core.Global[T]

// Node is a node-shared array (the paper's PPM_node_shared): one
// independent instance per node. It offers the same block accessors as
// Global.
type Node[T Elem] = core.Node[T]

// Elem constrains shared-array element types.
type Elem = core.Elem

// ReduceOp selects the combining operation of the reduction utilities.
type ReduceOp = core.ReduceOp

// Reduction operations.
const (
	OpSum = core.OpSum
	OpMax = core.OpMax
	OpMin = core.OpMin
)

// Machine is the cluster cost model.
type Machine = machine.Machine

// Time is a point in simulated time (seconds).
type Time = vtime.Time

// Duration is a span of simulated time (seconds).
type Duration = vtime.Duration

// Run executes prog as an SPMD program on every node of a simulated
// cluster and returns the run report.
func Run(opt Options, prog func(rt *Runtime)) (*Report, error) {
	return core.Run(opt, prog)
}

// AllocGlobal allocates a globally shared array of n elements,
// block-distributed over the nodes. Collective: every node must call it
// in the same program order with the same name and size.
func AllocGlobal[T Elem](rt *Runtime, name string, n int) *Global[T] {
	return core.AllocGlobal[T](rt, name, n)
}

// AllocNode allocates a node-shared array of n elements on every node
// (one independent instance per node). Collective like AllocGlobal.
func AllocNode[T Elem](rt *Runtime, name string, n int) *Node[T] {
	return core.AllocNode[T](rt, name, n)
}

// ChunkRange splits n items into parts blocks and returns block i's
// half-open range — the standard decomposition helper for VP bodies.
func ChunkRange(n, parts, i int) (lo, hi int) {
	return core.ChunkRange(n, parts, i)
}

// Global2D is a row-major two-dimensional view over a Global array.
type Global2D[T Elem] = core.Global2D[T]

// AllocGlobal2D allocates a rows x cols globally shared array.
func AllocGlobal2D[T Elem](rt *Runtime, name string, rows, cols int) *Global2D[T] {
	return core.AllocGlobal2D[T](rt, name, rows, cols)
}

// FillGlobal sets every element of g to v (node-level collective).
func FillGlobal[T Elem](rt *Runtime, g *Global[T], v T) { core.FillGlobal(rt, g, v) }

// CopyIn copies src into g's local partition (node-level collective; src
// is the full logical array).
func CopyIn[T Elem](rt *Runtime, g *Global[T], src []T) { core.CopyIn(rt, g, src) }

// CopyOut gathers the whole array onto every node (node-level
// collective) and returns it.
func CopyOut[T Elem](rt *Runtime, g *Global[T]) []T { return core.CopyOut(rt, g) }

// ReduceGlobal folds every element of g with op and returns the result on
// every node (node-level collective).
func ReduceGlobal[T Elem](rt *Runtime, g *Global[T], op func(a, b T) T) T {
	return core.ReduceGlobal(rt, g, op)
}

// PrefixSumGlobal replaces g in place with its exclusive prefix sum
// (node-level collective) — the paper's parallel-prefix utility.
func PrefixSumGlobal[T Elem](rt *Runtime, g *Global[T]) { core.PrefixSumGlobal(rt, g) }

// Event is one structured observation of a run (a send, receive, barrier
// release, or rank exit) for Options.Observer.
type Event = cluster.Event

// TraceCollector accumulates run events for post-mortem analysis:
// communication summaries and per-rank timelines.
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty collector; install it with
// Options.Observer = collector.Observer().
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Franklin returns the cost model shaped after the paper's platform, the
// NERSC Cray XT4 "Franklin" (4-core Opteron nodes, SeaStar interconnect).
func Franklin() *Machine { return machine.Franklin() }

// GenericMachine returns a round-numbered cost model convenient for
// hand-checked tests and examples.
func GenericMachine() *Machine { return machine.Generic() }

// Manycore returns a forward-looking cost model with the given core
// count per node, for exploring the paper's closing claim that PPM's
// advantage grows with cores per node.
func Manycore(cores int) *Machine { return machine.Manycore(cores) }
