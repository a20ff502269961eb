// Package core implements the Parallel Phase Model runtime — the paper's
// primary contribution.
//
// A PPM program is SPMD over the nodes of a cluster. On each node it may
// start K virtual processors (VPs) with Runtime.Do; VP bodies contain
// global and node *phases*. Within a phase, every read of a shared
// variable observes the value the variable had at the beginning of the
// phase, and every write takes effect only after the end of the phase,
// where there is an implicit barrier (cluster-wide for global phases,
// node-wide for node phases). Shared variables come in two kinds:
// Global[T] (one array, block-distributed over the cluster's virtual
// shared memory) and Node[T] (one array per node, in node shared memory).
//
// The runtime performs the optimizations the paper describes: fine-
// grained remote accesses are bundled into coarse packages, bundle
// traffic is overlapped with computation, and per-node traffic is
// serialized through one NIC rather than contending per core. Each of
// these is a switch in Options so the benchmarks can ablate them.
package core

import (
	"fmt"
	"os"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/vtime"
)

// Options configures one PPM run.
type Options struct {
	// Nodes is the number of cluster nodes (each runs one SPMD copy).
	Nodes int
	// CoresPerNode overrides the machine's core count when positive.
	CoresPerNode int
	// Machine is the cost model; machine.Franklin() if nil.
	Machine *machine.Machine

	// BundleBytes is the maximum payload of one remote-access bundle.
	// Zero selects the default (8192).
	BundleBytes int
	// NoBundling disables remote-access bundling: every fine-grained
	// remote element becomes its own message. Ablation switch for the
	// paper's "bundling fine-grained accesses" claim.
	NoBundling bool
	// NoOverlap disables communication/computation overlap: bundle
	// traffic is charged strictly after the phase's computation.
	NoOverlap bool
	// NoReadCache disables the runtime's per-phase remote-read cache.
	// Within a phase a shared variable is immutable (reads observe the
	// begin-of-phase value), so the runtime normally fetches each remote
	// element at most once per node per phase into node shared memory and
	// serves repeats locally; this switch charges every repeated fine-
	// grained read as fresh traffic. The cache set is tracked per VP
	// (interval runs for block reads, scattered indices for scalar reads)
	// and merged into the node-level dedup counts at commit, so VPs never
	// contend on a lock in the read hot path. Ablation switch.
	NoReadCache bool
	// StaticSchedule maps VPs to cores in contiguous blocks (the naive
	// compiler loop transform) instead of the runtime's dynamic load
	// balancing. Ablation switch.
	StaticSchedule bool
	// StrictWrites checks three breaches of phase semantics, every access
	// and every commit:
	//   - a write conflict: two VPs update one element in one phase, and
	//     not both by Add (Report.Conflicts; fails the run);
	//   - a stale read: a VP reads an element it wrote or added earlier in
	//     the phase and gets the begin-of-phase value (Report.Hazards; the
	//     run goes on);
	//   - a write around the commit: a node's partition or node-array
	//     instance changes while a Do runs by a path other than a commit,
	//     a write through a slice Local returned before the Do
	//     (Report.Hazards; fails the run).
	// Costs host time and memory; meant for debugging. Without it every
	// shared access makes the one test it makes anyway (accessCheck).
	StrictWrites bool

	// NoPlanCache disables the steady-state phase-plan cache. With the
	// cache on (the default), each Do shape — keyed by (K, body code
	// pointer) — keeps its doRun (VPs, write arenas) between invocations and
	// records a per-phase plan of the read-set merge (run lists, merged
	// per-owner traffic, remote fetch cover); repeated phases validate
	// the recorded shape against what the VPs actually accessed and
	// replay the plan instead of re-sorting and re-merging, making warm
	// iterations allocation-free. A mismatch (the program changed its
	// access shape) falls back to the cold rebuild, so results never
	// depend on the cache: modeled counters, outputs, and conflicts are
	// bit-identical either way. Setting PPM_PLAN_CACHE=0 in the
	// environment forces this off for every run; PPM_PLAN_CACHE=1
	// forces it on (used by CI to run the suite both ways).
	NoPlanCache bool

	// Warm, if non-nil, carries the plan cache across RunDist calls on
	// one engine: warm doRuns, their VPs' arenas, and recorded phase
	// plans survive the end of the run and are re-adopted by the next
	// RunDist handed the same session — provided the session's key (set
	// with WarmSession.SetKey) is unchanged, which callers use to scope
	// reuse to identical job specs. This is what lets a long-lived
	// serving fleet run repeated jobs at steady-state speed instead of
	// rebuilding the cache per job. Ignored by the simulator and when
	// the plan cache is off.
	Warm *WarmSession

	// OnPhase, if non-nil, is called after each committed global phase
	// in a distributed run with the number of phases this rank has
	// committed. It runs on the node's coordination goroutine — keep it
	// fast and never let it panic. Progress streaming hooks in here.
	OnPhase func(phases int64)

	// Parallel runs the simulator under the cluster's conservative
	// parallel scheduler: node compute sections (phase bodies, commit
	// application) execute concurrently on host cores while every
	// operation on shared simulator state is re-serialized in
	// sequential order, so the report is bit-identical to a sequential
	// run. Host-time optimization only; modeled results never change.
	Parallel bool

	// Observer, if non-nil, receives structured cluster events (sends,
	// receives, barriers, exits) for the trace/timeline tooling.
	Observer func(cluster.Event)

	// Checkpoint enables phase-boundary checkpoint/restart in distributed
	// runs (RunDist); the simulator ignores it, so checkpoint-aware
	// programs run unchanged under both backends.
	Checkpoint *CheckpointConfig
}

// CheckpointConfig configures phase-boundary checkpoint/restart. Each
// rank serializes its committed shared-array state plus phase counter
// and NodeStats to a per-rank file in Dir at the program's
// Runtime.MaybeCheckpoint markers; a relaunched fleet started with
// Restore agrees on the newest checkpoint every rank holds and resumes
// from it (see DESIGN.md §4.10).
type CheckpointConfig struct {
	// Dir is the checkpoint directory, shared by all ranks of a
	// localhost fleet (per-rank files never collide across ranks).
	Dir string
	// EveryPhases is the minimum number of committed global phases
	// between checkpoint writes (default 1: every marker that follows at
	// least one new phase writes).
	EveryPhases int
	// Restore makes Runtime.RestoreCheckpoint load the newest checkpoint
	// present on every rank; without it the marker is a no-op.
	Restore bool

	// HostProcs and HostProc describe elastic-rescale hosting: when a
	// fleet of Nodes logical ranks is re-homed onto HostProcs < Nodes
	// host processes (each process hosting a contiguous block of ranks,
	// partition.NewBlock(Nodes, HostProcs)), this rank runs inside host
	// process HostProc. The logical mesh is unchanged — every rank still
	// restores its own per-rank checkpoint — so results stay bit-
	// identical; the fields only let RestoreCheckpoint record the
	// re-homing in NodeStats.Rescale. Zero means native 1:1 hosting.
	HostProcs int
	HostProc  int
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Nodes <= 0 {
		return out, fmt.Errorf("core: Nodes must be positive, got %d", out.Nodes)
	}
	if out.Machine == nil {
		out.Machine = machine.Franklin()
	}
	if err := out.Machine.Validate(); err != nil {
		return out, err
	}
	if out.CoresPerNode == 0 {
		out.CoresPerNode = out.Machine.CoresPerNode
	}
	if out.CoresPerNode <= 0 {
		return out, fmt.Errorf("core: CoresPerNode must be positive, got %d", out.CoresPerNode)
	}
	if out.BundleBytes == 0 {
		out.BundleBytes = 8192
	}
	if out.BundleBytes < 0 {
		return out, fmt.Errorf("core: BundleBytes must be positive, got %d", out.BundleBytes)
	}
	if out.Checkpoint != nil {
		c := *out.Checkpoint
		if c.Dir == "" {
			return out, fmt.Errorf("core: Checkpoint.Dir must be set")
		}
		if c.EveryPhases <= 0 {
			c.EveryPhases = 1
		}
		if c.HostProcs < 0 || c.HostProcs > out.Nodes {
			return out, fmt.Errorf("core: Checkpoint.HostProcs must be in [0, Nodes], got %d", c.HostProcs)
		}
		if c.HostProcs > 0 && (c.HostProc < 0 || c.HostProc >= c.HostProcs) {
			return out, fmt.Errorf("core: Checkpoint.HostProc must be in [0, HostProcs), got %d", c.HostProc)
		}
		out.Checkpoint = &c
	}
	// PPM_PLAN_CACHE overrides the plan-cache switch for every run in
	// the process (read per run, not at init, so tests can toggle it).
	switch os.Getenv("PPM_PLAN_CACHE") {
	case "0":
		out.NoPlanCache = true
	case "1":
		out.NoPlanCache = false
	}
	return out, nil
}

// NodeStats aggregates PPM runtime activity on one node.
type NodeStats struct {
	Dos          int64 // Runtime.Do invocations
	VPsStarted   int64
	GlobalPhases int64
	NodePhases   int64

	SharedReads  int64 // element reads through shared variables
	SharedWrites int64 // element writes (incl. Add) through shared variables

	RemoteReadElems  int64 // reads served from other nodes' partitions
	RemoteWriteElems int64 // writes destined to other nodes' partitions
	BundlesOut       int64 // bundles this node sent (requests + write pushes)
	BundlesIn        int64 // bundles this node received at commit
	BytesOut         int64 // modeled bundle payload bytes sent
	BytesIn          int64

	// Per-phase time breakdown (accumulated over all phases on the node).
	PhaseComputeTime vtime.Duration // VP work spans, incl. dispatch and fixed costs
	PhaseCommTime    vtime.Duration // communication time not hidden by overlap
	PhaseApplyTime   vtime.Duration // receive-side unpack and commit application

	// Wire counts real transport activity. Only distributed runs fill
	// it; the simulator's modeled traffic lives in the fields above, and
	// the equivalence tests compare reports with Wire zeroed (like the
	// vtime fields, it measures the substrate, not the program).
	Wire WireStats

	// PlanCache counts phase-plan cache activity (see Options.
	// NoPlanCache). Like Wire it measures the host substrate, not the
	// program, so the equivalence tests compare reports with it zeroed.
	PlanCache PlanCacheStats

	// Rescale records elastic-rescale recoveries on this rank (see
	// CheckpointConfig.HostProcs). Like Wire and PlanCache it measures
	// the substrate — where the rank physically ran, not what the
	// program computed — so the equivalence tests compare reports with
	// it zeroed.
	Rescale RescaleStats
}

// RescaleStats records rescaled checkpoint restores on one rank: a
// checkpoint written by FromProcs host processes (one per rank) was
// restored into a fleet squeezed onto ToProcs processes. RanksMoved
// counts the restores in which this rank landed on a host process other
// than its own (i.e. it was re-homed), and ElemsMoved totals the shared-
// array elements that moved with it — its Global partitions plus its
// Node arrays. Totals over PerNode therefore give the fleet-wide ranks
// and elements re-homed by the rescale.
type RescaleStats struct {
	FromProcs  int64
	ToProcs    int64
	Restores   int64
	RanksMoved int64
	ElemsMoved int64
}

func (r *RescaleStats) add(o RescaleStats) {
	// FromProcs/ToProcs describe a topology, not a count: keep the
	// widest from/narrowest to across ranks so Totals still reads as
	// "an N-proc fleet's state now lives on M procs".
	if o.FromProcs > r.FromProcs {
		r.FromProcs = o.FromProcs
	}
	if r.ToProcs == 0 || (o.ToProcs > 0 && o.ToProcs < r.ToProcs) {
		r.ToProcs = o.ToProcs
	}
	r.Restores += o.Restores
	r.RanksMoved += o.RanksMoved
	r.ElemsMoved += o.ElemsMoved
}

// PlanCacheStats counts steady-state phase-plan cache activity on one
// node: how often a committed phase replayed a recorded plan (Hits),
// had to build one cold (Misses), or found a previously valid plan no
// longer matching the phase's access shape (Invalidations, a subset of
// Misses). RunsReplayed totals the read-set entries (block-read runs
// plus scalar read-log keys, a key a VP rereads later in the phase
// counting each time it is logged) whose sort/merge/owner-split was
// skipped on hits.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	RunsReplayed  int64
}

func (p *PlanCacheStats) add(o PlanCacheStats) {
	p.Hits += o.Hits
	p.Misses += o.Misses
	p.Invalidations += o.Invalidations
	p.RunsReplayed += o.RunsReplayed
}

// WireStats counts one node process's real wire activity in a
// distributed run: what actually went onto (or was saved from) the
// TCP links, as opposed to the modeled bundle counters. The engine
// supplies the transport-side fields; core fills the commit-codec and
// read-coalescing fields. The benchmark's traced runs report them as the
// dist.* per-layer metrics (dist.frames_out, dist.flushes, ...).
type WireStats struct {
	FramesOut int64 // wire frames handed to the per-peer writers
	Flushes   int64 // TCP writes (bundles actually shipped)
	// ForcedFlushes reads 0: nothing forces a flush since the adaptive
	// bundler was deleted. The field stays only because the frozen
	// benchmark/probes.go reads it, and leaves with the next benchmark PR.
	ForcedFlushes int64
	BytesOnWire   int64 // bytes written to sockets, after bundling and codec

	ReadReqsSent   int64 // remote reads that went to the wire
	ReadsCoalesced int64 // VP fetch waits satisfied by another VP's in-flight request

	CommitBytesRaw int64 // commit-stream bytes before the codec
	CommitBytesEnc int64 // commit-stream bytes after the codec (== raw under CodecRaw)
}

func (w *WireStats) add(o WireStats) {
	w.FramesOut += o.FramesOut
	w.Flushes += o.Flushes
	w.BytesOnWire += o.BytesOnWire
	w.ReadReqsSent += o.ReadReqsSent
	w.ReadsCoalesced += o.ReadsCoalesced
	w.CommitBytesRaw += o.CommitBytesRaw
	w.CommitBytesEnc += o.CommitBytesEnc
}

// sub subtracts a baseline snapshot, turning an engine's cumulative
// lifetime counters into one run's share (reused engines serve many
// runs; each run reports only its own traffic).
func (w *WireStats) sub(o WireStats) {
	w.FramesOut -= o.FramesOut
	w.Flushes -= o.Flushes
	w.BytesOnWire -= o.BytesOnWire
	w.ReadReqsSent -= o.ReadReqsSent
	w.ReadsCoalesced -= o.ReadsCoalesced
	w.CommitBytesRaw -= o.CommitBytesRaw
	w.CommitBytesEnc -= o.CommitBytesEnc
}

// Program returns s without the blocks that measure the substrate (Wire,
// PlanCache, Rescale: the wire, the plan cache, where the rank ran),
// keeping what the program computed. Reports of one program on different
// substrates compare equal through it.
func (s NodeStats) Program() NodeStats {
	s.Wire, s.PlanCache, s.Rescale = WireStats{}, PlanCacheStats{}, RescaleStats{}
	return s
}

// Add accumulates o into s field by field (used by the distributed
// launcher to rebuild run totals from per-process reports).
func (s *NodeStats) Add(o NodeStats) { s.add(o) }

func (s *NodeStats) add(o NodeStats) {
	s.Dos += o.Dos
	s.VPsStarted += o.VPsStarted
	s.GlobalPhases += o.GlobalPhases
	s.NodePhases += o.NodePhases
	s.SharedReads += o.SharedReads
	s.SharedWrites += o.SharedWrites
	s.RemoteReadElems += o.RemoteReadElems
	s.RemoteWriteElems += o.RemoteWriteElems
	s.BundlesOut += o.BundlesOut
	s.BundlesIn += o.BundlesIn
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.PhaseComputeTime += o.PhaseComputeTime
	s.PhaseCommTime += o.PhaseCommTime
	s.PhaseApplyTime += o.PhaseApplyTime
	s.Wire.add(o.Wire)
	s.PlanCache.add(o.PlanCache)
	s.Rescale.add(o.Rescale)
}

// Report summarizes a PPM run: the underlying cluster report plus PPM
// runtime statistics. Under StrictWrites, Conflicts holds every
// conflicting update detected and Hazards the stale reads and writes
// around the commit, one row per kind, array and phase (the run's error
// is only the first violation); both are empty otherwise. On a mesh each
// rank's report holds what its own node found, and MergeHazards of the
// ranks' Hazards is the simulator's.
type Report struct {
	Cluster   *cluster.Report
	PerNode   []NodeStats
	Totals    NodeStats
	Conflicts []WriteConflict
	Hazards   []Hazard
}

// Makespan returns the modeled wall-clock time of the run. Distributed
// runs (Cluster == nil) do not model time and report zero.
func (r *Report) Makespan() vtime.Time {
	if r.Cluster == nil {
		return 0
	}
	return r.Cluster.Makespan
}

// String renders a short human-readable summary.
func (r *Report) String() string {
	head := any(r.Cluster)
	if r.Cluster == nil {
		head = "distributed"
	}
	return fmt.Sprintf("%v | dos=%d vps=%d phases=%d/%d reads=%d writes=%d remote(r/w)=%d/%d bundles(out/in)=%d/%d",
		head, r.Totals.Dos, r.Totals.VPsStarted,
		r.Totals.GlobalPhases, r.Totals.NodePhases,
		r.Totals.SharedReads, r.Totals.SharedWrites,
		r.Totals.RemoteReadElems, r.Totals.RemoteWriteElems,
		r.Totals.BundlesOut, r.Totals.BundlesIn)
}
