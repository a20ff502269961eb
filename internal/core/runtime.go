package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/vtime"
	"ppm/internal/wire"
)

// globalState is the host-shared state of one PPM run. Under the
// simulator it is mutated only under the cluster's cooperative turn
// discipline (one node at a time), so it needs no locks and VP bodies
// never touch it directly. Under the distributed runtime (dist != nil)
// each process holds its own globalState for its single node; the
// per-node slices are indexed by rank but only this rank's entries are
// authoritative, except doK, which is refreshed by allgather at each
// global phase open.
type globalState struct {
	opt   Options
	mach  *machine.Machine
	nodes int
	cores int

	arrays    []registeredArray // creation order, identical on all nodes
	allocSeq  []int             // per node: how many arrays it has allocated
	doK       []int             // current Do's K per node (see VP.GlobalRank)
	phaseSeqs []int64           // per node: phases committed (strict-mode epochs)
	stats     []NodeStats

	strictErr error       // first strict-mode violation
	conflicts conflictLog // every strict-mode conflict, with attribution
	// hazards[node] is the rows of the stale reads and writes around the
	// commit node's commits found (StrictWrites only), in commit order.
	hazards [][]Hazard

	// serialMu orders the Serial sections of every node this process
	// runs (all of them under the simulator, its own rank on a mesh).
	serialMu sync.Mutex

	// streams[src] is, under the simulator, the commit streams node src
	// sent in the global-phase commit in progress, indexed by
	// destination: each node publishes its row before the exchange
	// barrier and reads its column after it (doRun.exchange).
	streams [][][]byte

	// Distributed mode only (see dist.go). memMu guards every shared
	// array's backing store against the engine's read-server goroutine:
	// write-held whenever this process may mutate partitions (node level,
	// commit apply), released only while a global phase is open. memHeld
	// tracks the write side, which is only ever taken by the run's main
	// goroutine.
	dist    DistEngine
	memMu   sync.RWMutex
	memHeld bool
	// lastCkptPhase is the phaseSeq of this rank's newest checkpoint
	// (written or restored), driving Checkpoint.EveryPhases spacing.
	lastCkptPhase int64
	// Core-side wire counters (see WireStats): fetch waits that rode
	// another VP's in-flight request (atomic — VPs race), and commit
	// stream sizes before/after the codec (commit goroutine only).
	wireCoalesced                atomic.Int64
	wireCommitRaw, wireCommitEnc int64
}

// newGlobalState is the state of a run with options o, on the simulator
// (eng nil) or as one rank of eng's mesh.
func newGlobalState(o Options, eng DistEngine) *globalState {
	gs := &globalState{
		opt:       o,
		mach:      o.Machine,
		nodes:     o.Nodes,
		cores:     o.CoresPerNode,
		dist:      eng,
		allocSeq:  make([]int, o.Nodes),
		doK:       make([]int, o.Nodes),
		phaseSeqs: make([]int64, o.Nodes),
		stats:     make([]NodeStats, o.Nodes),
	}
	if eng == nil {
		gs.streams = make([][][]byte, o.Nodes)
	}
	if o.StrictWrites {
		gs.hazards = make([][]Hazard, o.Nodes)
	}
	return gs
}

// report assembles the run's Report (crep is the simulated cluster's, nil
// on a mesh rank) and returns it with the run's error: runErr, or else
// the first strict-mode violation.
func (gs *globalState) report(crep *cluster.Report, runErr error) (*Report, error) {
	rep := &Report{Cluster: crep, PerNode: gs.stats, Conflicts: gs.conflicts.list(), Hazards: MergeHazards(gs.hazards...)}
	for _, s := range gs.stats {
		rep.Totals.add(s)
	}
	if runErr == nil {
		runErr = gs.strictErr
	}
	return rep, runErr
}

// noteStrict records the first strict-mode violation of the run.
func (gs *globalState) noteStrict(err error) {
	if gs.strictErr == nil {
		gs.strictErr = err
	}
}

// arrayElemBytes is the commit codec's array-id → element-size lookup.
// Ids outside the registered set report 0 (unknown), which the codec
// rejects as protocol corruption.
func (gs *globalState) arrayElemBytes(id int) int {
	if id < 0 || id >= len(gs.arrays) {
		return 0
	}
	return gs.arrays[id].elemBytes()
}

// registeredArray is the commit-side interface every shared array
// implements.
type registeredArray interface {
	// applyStaged applies the runs node's VPs staged for node's own
	// partition this phase, clears the stage, and returns how many
	// elements it applied and the first strict-mode conflict.
	applyStaged(node int, strict bool, phaseSeq int64) (elems int, err error)
	// elemBytes returns the modeled element size.
	elemBytes() int
	// ownerSpan returns the node owning element i and the end of that
	// node's partition (for splitting interval runs by owner at the
	// read-set merge); node arrays are always local.
	ownerSpan(i int) (owner, end int)
	// localElems returns how many elements node holds authoritatively
	// (a global array's partition size, a node array's full length);
	// rescaled restores use it to account elements moved between hosts.
	localElems(node int) int
	// snapLocal copies node's authoritative storage aside, and
	// appendChanged appends to out the index of every element that has
	// changed since (StrictWrites only; see doRun.strictCommit).
	snapLocal(node int)
	appendChanged(node int, out []int) []int
	// label returns a diagnostic name.
	label() string

	// Commit-stream hooks (see dist.go): what src wrote to dst's
	// partition, as a block of the wire commit grammar, and one block of
	// a peer's stream applied to node's partition. Node arrays never
	// cross the wire, so theirs are stubs.
	encodeStagedWire(src, dst int, buf []byte) []byte
	applyWireRuns(node int, strict bool, phaseSeq int64, rd *wire.CommitReader, nRuns int) (elems int, strictErr, err error)

	// Distributed-mode hooks (see dist.go), stubs for node arrays.
	resetDistCache()
	encodeRange(node, lo, hi int) ([]byte, error)
	installRange(lo, hi int, data []byte) error
	// addCover marks a range a plan prefetch installed as locally valid.
	addCover(lo, hi int)

	// Checkpoint hooks (see checkpoint.go): this node's authoritative
	// image as one wire-grammar commit block, and its reinstallation.
	encodeCheckpoint(node int, buf []byte) []byte
	restoreCheckpoint(node int, rd *wire.CommitReader, nRuns int) error

	// release hands the array's write staging and storage back to their
	// pools at the end of a successful run and ends the array: any later
	// access panics.
	release()
}

// releaseArrays releases every array of a run that has succeeded and
// empties the registry, so that nothing reaches them through gs any more:
// the engine's read server refuses their ids (ErrUnknownArray).
func (gs *globalState) releaseArrays() {
	for _, arr := range gs.arrays {
		arr.release()
	}
	gs.arrays = nil
}

// Runtime is one node's handle to the PPM run: the analog of the paper's
// per-node runtime library instance. Methods on Runtime are node-level
// operations (outside virtual processors); VP-level operations live on VP
// and on the shared-array types.
type Runtime struct {
	gs   *globalState
	proc *cluster.Proc
	comm *mp.Comm
	node int

	inDo bool
	// warm caches doRuns by Do shape so repeated Dos reuse their VP
	// workers and recorded phase plans (see plan.go); nil when the plan
	// cache is off. Released when the node's program finishes.
	warm map[doKey]*doRun
}

// Runner is the signature shared by Run and the distributed launcher's
// per-process runner. Application packages written against a Runner
// execute identically under the simulator and under real processes —
// which is how distributed bit-identity is obtained by construction.
type Runner func(opt Options, prog func(rt *Runtime)) (*Report, error)

// Run executes prog as a PPM SPMD program on every node of a simulated
// cluster and returns the run report. The run's arrays end with it: prog
// copies out what it wants to keep.
func Run(opt Options, prog func(rt *Runtime)) (*Report, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	gs := newGlobalState(o, nil)
	rts := make([]*Runtime, o.Nodes)
	crep, err := cluster.Run(cluster.Config{
		Procs:        o.Nodes,
		ProcsPerNode: 1,
		Machine:      o.Machine,
		Observer:     o.Observer,
		Parallel:     o.Parallel,
	}, func(p *cluster.Proc) {
		rt := &Runtime{gs: gs, proc: p, comm: mp.New(p), node: p.Rank()}
		prog(rt)
		rts[rt.node] = rt
	})
	if err == nil {
		// Once every node is done, so that no node's release lands in
		// another's phases.
		for _, rt := range rts {
			rt.releaseWarm()
		}
		gs.releaseArrays()
	}
	return gs.report(crep, err)
}

// releaseWarm ends the warm cache of a node whose program has finished:
// the doRuns die with the Runtime, their phase scratch and their plans'
// chunks and segment tables go back to the pools for the next run.
func (rt *Runtime) releaseWarm() {
	for _, d := range rt.warm {
		for _, p := range d.plans {
			for i := range p.keys {
				d.keyPool.put(p.keys[i]...)
				d.runPool.put(p.runs[i]...)
			}
			putSegs(p.segs)
		}
		d.plans = nil
		d.release()
	}
	rt.warm = nil
}

// NodeCount returns the number of nodes (the paper's PPM_node_count).
func (rt *Runtime) NodeCount() int { return rt.gs.nodes }

// NodeID returns this node's id in [0, NodeCount) (PPM_node_id).
func (rt *Runtime) NodeID() int { return rt.node }

// CoresPerNode returns the number of cores per node (PPM_cores_per_node).
func (rt *Runtime) CoresPerNode() int { return rt.gs.cores }

// Machine returns the cost model in effect.
func (rt *Runtime) Machine() *machine.Machine { return rt.gs.mach }

// Clock returns this node's current virtual time. Distributed runs do
// not model time, so there it is always zero.
func (rt *Runtime) Clock() vtime.Time {
	if rt.proc == nil {
		return 0
	}
	return rt.proc.Clock()
}

// Charge advances this node's clock by d of modeled node-level
// computation (work done outside virtual processors). A no-op in
// distributed runs, where real time passes instead.
func (rt *Runtime) Charge(d vtime.Duration) {
	if rt.proc != nil {
		rt.proc.Charge(d)
	}
}

// ChargeFlops charges n flops of node-level computation on one core.
func (rt *Runtime) ChargeFlops(n int64) {
	if rt.proc != nil {
		rt.proc.ChargeFlops(n)
	}
}

// ChargeMem charges streaming n bytes of node-level data movement.
func (rt *Runtime) ChargeMem(n int64) {
	if rt.proc != nil {
		rt.proc.ChargeMem(n)
	}
}

// Barrier synchronizes all nodes (node-level; rarely needed because
// phases synchronize implicitly, but exposed for setup code).
func (rt *Runtime) Barrier() {
	if rt.proc == nil {
		rt.comm.Barrier()
		return
	}
	rt.proc.Barrier()
}

// Serial runs f in the process's serial section: at most one Serial
// callback executes at a time, whether VP code or node-level code calls
// it. It is the sanctioned way for VP code to update host state that is
// not a shared array (counters, work queues, package variables); such
// an update made without it is a data race that `go test -race` reports.
// Node-level code on the simulator also takes the cooperative turn
// first, so that its sections run in the sequential scheduler's order.
// VP code cannot take the turn (it runs on the node's pool workers, not
// on the node's own goroutine), so it holds only the mutex.
func (rt *Runtime) Serial(f func()) {
	if rt.proc != nil && !rt.inDo {
		rt.proc.Serial(func() { rt.gs.serial(f) })
		return
	}
	rt.gs.serial(f)
}

func (gs *globalState) serial(f func()) {
	gs.serialMu.Lock()
	defer gs.serialMu.Unlock()
	f()
}

// stats returns this node's mutable statistics record.
func (rt *Runtime) stats() *NodeStats { return &rt.gs.stats[rt.node] }

// ReduceOp is a binary combining operation for the reduction utilities.
type ReduceOp int

// Reduction operations.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) applyF64(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	default:
		panic(fmt.Sprintf("core: invalid ReduceOp %d", int(op)))
	}
}

func (op ReduceOp) applyInt(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("core: invalid ReduceOp %d", int(op)))
	}
}

// AllReduce combines one float64 contribution per node with op and
// returns the result on every node. This is one of the paper's utility
// functions; it is collective over nodes and must be called outside Do.
func (rt *Runtime) AllReduce(v float64, op ReduceOp) float64 {
	rt.checkNodeLevel("AllReduce")
	out := mp.Allreduce(rt.comm, []float64{v}, op.applyF64)
	return out[0]
}

// AllReduceInt is AllReduce for int64 contributions.
func (rt *Runtime) AllReduceInt(v int64, op ReduceOp) int64 {
	rt.checkNodeLevel("AllReduceInt")
	out := mp.Allreduce(rt.comm, []int64{v}, op.applyInt)
	return out[0]
}

// PrefixSumInt returns the exclusive prefix sum over nodes of v (node 0
// gets 0): the paper's parallel-prefix utility at node granularity.
func (rt *Runtime) PrefixSumInt(v int) int {
	rt.checkNodeLevel("PrefixSumInt")
	return mp.ExscanSumInt(rt.comm, v)
}

// Broadcast distributes root's value to all nodes.
func (rt *Runtime) Broadcast(root int, v float64) float64 {
	rt.checkNodeLevel("Broadcast")
	out := mp.Bcast(rt.comm, root, []float64{v})
	return out[0]
}

func (rt *Runtime) checkNodeLevel(what string) {
	if rt.inDo {
		panic(fmt.Sprintf("core: %s is a node-level collective and must not be called from inside Do", what))
	}
}

// ChunkRange splits n items into parts blocks and returns the half-open
// range of block i: the standard owner-computes decomposition helper.
func ChunkRange(n, parts, i int) (lo, hi int) {
	if parts <= 0 || i < 0 || i >= parts {
		panic(fmt.Sprintf("core: ChunkRange(%d, %d, %d) out of range", n, parts, i))
	}
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
