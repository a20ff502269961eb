package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"ppm/internal/vtime"
)

// phaseKind distinguishes the two parallel phase constructs.
type phaseKind int

const (
	phaseInvalid phaseKind = iota
	phaseGlobal
	phaseNode
)

func (k phaseKind) String() string {
	switch k {
	case phaseGlobal:
		return "global"
	case phaseNode:
		return "node"
	default:
		return "invalid"
	}
}

// vpStatus is the coordinator's view of one VP.
type vpStatus int

const (
	stRunning vpStatus = iota
	stAtBoundary
	stAtPhaseEnd
	stDead
)

type vpEventKind int

const (
	evBoundary vpEventKind = iota
	evPhaseEnd
	evExit
	evPanic
)

// vpAbort unwinds a VP goroutine during teardown.
type vpAbort struct{}

// intRun is a half-open interval [lo, hi) of shared-array indices.
type intRun struct {
	lo, hi int
}

// VP is a virtual processor: one of the K parallel instances of a PPM
// function started by Runtime.Do (the paper's PPM_do construct). All VP
// methods must be called from the VP's own body.
type VP struct {
	d        *doRun
	nodeRank int
	wid      int64 // (node<<32)|nodeRank, precomputed writer id
	resume   chan bool

	// coordinator-only state
	status vpStatus

	// The VP's latest event, written by its own goroutine just before it
	// counts itself off doRun.pending (see report); the coordinator reads
	// it only after the idle token, which orders every such write first.
	evKind vpEventKind
	evPk   phaseKind // requested kind at evBoundary, for the shape check
	evErr  error     // evPanic only

	inPhase   bool
	phaseKind phaseKind

	// accounting, merged and reset at each phase commit
	charge  vtime.Duration
	reads   int64
	writes  int64
	rrElems []int64 // remote read elements per owner node (NoReadCache)
	rrBytes []int64
	bufs    []vpFlusher

	// Per-VP remote-read tracking for the phase-local read cache: block
	// reads record interval runs per array (indexed by array id), scalar
	// reads append to an ordered log of keys. VP goroutines only ever touch
	// their own tracking — no lock — and the coordinator merges it into the
	// node-level dedup counts at commit. rdMark is the log's length after
	// its last in-phase compaction (0 when there was none; see
	// noteRemoteRead).
	rdRuns [][]intRun
	rdIdx  []readKey
	rdMark int
}

// A scalar read log starts sized for a binary search's worth of probes
// and is first compacted at readLogCompactMin keys.
const (
	readLogInitCap    = 24
	readLogCompactMin = 4096
)

// readKey identifies one element of one shared array for the read cache.
type readKey struct {
	array int
	idx   int
}

// NodeRank returns this VP's rank within its node's Do, in [0, K)
// (PPM_VP_node_rank).
func (vp *VP) NodeRank() int { return vp.nodeRank }

// K returns the number of VPs started by this node's Do.
func (vp *VP) K() int { return vp.d.k }

// Node returns the node id this VP runs on.
func (vp *VP) Node() int { return vp.d.node }

// Nodes returns the cluster's node count.
func (vp *VP) Nodes() int { return vp.d.rt.gs.nodes }

// Cores returns the cores per node.
func (vp *VP) Cores() int { return vp.d.rt.gs.cores }

// GlobalRank returns this VP's rank across all nodes' current Do calls
// (PPM_VP_global_rank): the sum of the K values of lower-numbered nodes
// plus NodeRank. It is well defined only inside a global phase, when all
// nodes are synchronously inside their Do; the prefix sum is computed
// once at phase open instead of per call.
func (vp *VP) GlobalRank() int {
	if vp.d.rankValid {
		return vp.d.rankBase + vp.nodeRank
	}
	gs := vp.d.rt.gs
	s := 0
	for n := 0; n < vp.d.node; n++ {
		s += gs.doK[n]
	}
	return s + vp.nodeRank
}

// GlobalK returns the total VP count across all nodes' current Do calls.
// Like GlobalRank, it is well defined only inside a global phase.
func (vp *VP) GlobalK() int {
	if vp.d.rankValid {
		return vp.d.globalK
	}
	gs := vp.d.rt.gs
	s := 0
	for n := 0; n < gs.nodes; n++ {
		s += gs.doK[n]
	}
	return s
}

// Charge adds d of modeled computation to this VP's work in the current
// phase (or the inter-phase segment).
func (vp *VP) Charge(d vtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("core: VP %d charged negative duration %v", vp.nodeRank, d))
	}
	vp.charge += d
}

// ChargeFlops adds the modeled time of n flops on one core.
func (vp *VP) ChargeFlops(n int64) { vp.charge += vp.d.rt.gs.mach.FlopTime(n) }

// ChargeMem adds the modeled time of streaming n bytes through one core.
func (vp *VP) ChargeMem(n int64) { vp.charge += vp.d.rt.gs.mach.MemTime(n) }

// GlobalPhase executes f under global (cluster-wide) phase semantics:
// implicit begin/end synchronization across all VPs of all nodes, reads
// observe begin-of-phase values, writes commit at the end.
func (vp *VP) GlobalPhase(f func()) { vp.phase(phaseGlobal, f) }

// NodePhase executes f under node-level phase semantics: synchronization
// only among this node's VPs, no cluster communication. Shared access is
// limited to node arrays and the node's own partition of global arrays.
func (vp *VP) NodePhase(f func()) { vp.phase(phaseNode, f) }

func (vp *VP) phase(pk phaseKind, f func()) {
	if vp.inPhase {
		panic(fmt.Sprintf("core: nested phase construct (VP %d on node %d)", vp.nodeRank, vp.d.node))
	}
	vp.park(evBoundary, pk)
	vp.inPhase = true
	vp.phaseKind = pk
	f()
	vp.inPhase = false
	vp.phaseKind = phaseInvalid
	vp.park(evPhaseEnd, pk)
}

// park announces a transition to the coordinator and waits to be resumed.
func (vp *VP) park(kind vpEventKind, pk phaseKind) {
	vp.report(kind, pk, nil)
	if !<-vp.resume {
		panic(vpAbort{})
	}
}

// report stores the VP's event in its own fields and counts the VP off
// the boundary latch; the VP that brings the latch to zero hands the
// coordinator its one idle token. The atomic decrement publishes the
// fields: the last decrement observes every earlier one, and the token
// send follows it.
func (vp *VP) report(kind vpEventKind, pk phaseKind, err error) {
	vp.evKind, vp.evPk, vp.evErr = kind, pk, err
	if vp.d.pending.Add(-1) == 0 {
		vp.d.idle <- struct{}{}
	}
}

// accessCheck guards shared-variable access paths.
func (vp *VP) accessCheck(array, op string) {
	if !vp.inPhase {
		panic(fmt.Sprintf("core: %s of shared %q outside a phase (VP %d on node %d): shared variables may only be accessed inside PPM phases",
			op, array, vp.nodeRank, vp.d.node))
	}
}

// noteRemoteRead accounts one remote element read for bundling. The
// runtime keeps a node-level cache of remote values in node shared
// memory: within a phase the element is immutable, so the node fetches it
// at most once no matter how many VPs read it. Each VP appends to its own
// log without locking (skipping an immediate repeat); the commit sorts
// and dedups the logs' union, so a key logged twice counts once.
//
// The log stays O(distinct keys): once it has doubled since its last
// compaction it is sorted and deduplicated in place, so a VP rereading a
// few remote scalars forever holds a few keys. Compaction points depend
// only on the VP's own read sequence, so a deterministic body reproduces
// the same log and plan validation (plan.go) still matches.
func (vp *VP) noteRemoteRead(array, idx, owner, elemBytes int) {
	if vp.d.rt.gs.opt.NoReadCache {
		vp.countRemote(owner, 1, int64(elemBytes))
		return
	}
	key := readKey{array: array, idx: idx}
	n := len(vp.rdIdx)
	if n > 0 && vp.rdIdx[n-1] == key {
		return
	}
	if vp.rdIdx == nil {
		vp.rdIdx = make([]readKey, 0, readLogInitCap)
	}
	if n >= max(2*vp.rdMark, readLogCompactMin) {
		slices.SortFunc(vp.rdIdx, func(a, b readKey) int {
			return cmp.Or(cmp.Compare(a.array, b.array), cmp.Compare(a.idx, b.idx))
		})
		vp.rdIdx = slices.Compact(vp.rdIdx)
		vp.rdMark = len(vp.rdIdx)
	}
	vp.rdIdx = append(vp.rdIdx, key)
}

// clearReadLog empties the scalar read log at the end of a phase.
func (vp *VP) clearReadLog() {
	vp.rdIdx = vp.rdIdx[:0]
	vp.rdMark = 0
}

// noteRemoteRun accounts a remote block read of [lo, hi) as one interval
// run — the bulk counterpart of noteRemoteRead. The caller has already
// split the range so that one owner serves all of it.
func (vp *VP) noteRemoteRun(array, lo, hi, owner, elemBytes int) {
	if vp.d.rt.gs.opt.NoReadCache {
		vp.countRemote(owner, int64(hi-lo), int64((hi-lo)*elemBytes))
		return
	}
	if vp.rdRuns == nil {
		vp.rdRuns = make([][]intRun, len(vp.d.rt.gs.arrays))
	}
	runs := vp.rdRuns[array]
	if k := len(runs); k > 0 {
		if last := &runs[k-1]; lo >= last.lo && lo <= last.hi {
			if hi > last.hi {
				last.hi = hi
			}
			return
		}
	}
	vp.rdRuns[array] = append(runs, intRun{lo: lo, hi: hi})
}

// countRemote tallies uncached remote-read traffic directly (NoReadCache:
// every fine-grained read is fresh traffic).
func (vp *VP) countRemote(owner int, elems, bytes int64) {
	if vp.rrElems == nil {
		n := vp.d.rt.gs.nodes
		vp.rrElems = make([]int64, n)
		vp.rrBytes = make([]int64, n)
	}
	vp.rrElems[owner] += elems
	vp.rrBytes[owner] += bytes
}

// doRun coordinates one Do invocation on one node. With the plan cache
// on it is reused across Do invocations of the same shape (see plan.go):
// its VP goroutines stay parked at a start gate between Dos, and its
// scratch and recorded phase plans carry over, which is what makes warm
// iterations allocation-free.
type doRun struct {
	rt   *Runtime
	node int
	k    int
	vps  []*VP

	// Boundary latch: the coordinator sets pending to the number of VPs
	// it is about to resume, before the first resume is sent; each VP
	// counts itself off when it next parks, ends its phase, exits or
	// panics, and the one that reaches zero puts the token on idle.
	pending atomic.Int32
	idle    chan struct{}

	// Warm-cache state (plan.go). persistent marks a cached doRun whose
	// workers park at the start gate between Dos; body is the current
	// invocation's body (re-set per Do: closures with the same code
	// pointer may capture different state); broken marks a doRun whose
	// workers died on an error path and must not be reused.
	persistent bool
	broken     bool
	body       func(*VP)

	// plans[i] is the recorded plan of the i-th phase of this Do shape
	// (node phases occupy slots but are never consulted).
	plans []phasePlan

	phases     int64
	phaseStart vtime.Time
	openKind   phaseKind // kind of the phase currently open (set by openPhase)

	// Global-rank cache: the doK prefix sums are stable while a global
	// phase is open (every node is synchronously inside its Do), so they
	// are computed once at phase open.
	rankBase  int
	globalK   int
	rankValid bool

	// Commit-time scratch for merging the per-VP read sets (per array id).
	mrRuns [][]intRun
	mrIdx  [][]int

	// Commit-time scratch reused across phases (and, for a persistent
	// doRun, across Dos): the per-peer send tally, the merged per-owner
	// remote-read counters, and the per-source incoming counters.
	ctally   sendTally
	crrElems []int64
	crrBytes []int64
	cinElems []int64
	cinBytes []int64

	// Distributed commit scratch (see commitGlobalDist): the outgoing
	// stream slice, per-destination raw and delta-encode buffers,
	// per-source decode buffers, and the stream cursors.
	cout    [][]byte
	coutRaw [][]byte
	coutEnc [][]byte
	cdec    [][]byte
	ccurs   []commitCursor

	// Phase-open scratch: per-owner results of a several-owner prefetch.
	pferrs []error

	sharedReadCost  vtime.Duration
	sharedWriteCost vtime.Duration
}

// Do starts K virtual processors executing body in parallel on this node
// (the paper's "PPM_do(K) func(...)" construct) and returns when all of
// them have finished. Phases inside body synchronize the VPs; global
// phases additionally synchronize with the other nodes' Do calls, which
// must reach their global phases in matching order.
func (rt *Runtime) Do(k int, body func(vp *VP)) {
	if rt.inDo {
		panic("core: nested Do is not allowed")
	}
	if k <= 0 {
		panic(fmt.Sprintf("core: Do requires K >= 1, got %d", k))
	}
	if body == nil {
		panic("core: Do with nil body")
	}
	rt.inDo = true
	defer func() { rt.inDo = false }()

	st := rt.stats()
	st.Dos++
	st.VPsStarted += int64(k)
	rt.gs.doK[rt.node] = k

	if !rt.gs.opt.NoPlanCache {
		rt.warmDoRun(k, body).coordinate()
		return
	}
	d := newDoRun(rt, k)
	d.pending.Store(int32(k))
	for _, vp := range d.vps {
		go d.vpMain(vp, body)
	}
	d.coordinate()
}

// newDoRun builds a doRun with its K VPs (goroutines not yet started).
func newDoRun(rt *Runtime, k int) *doRun {
	d := &doRun{
		rt:              rt,
		node:            rt.node,
		k:               k,
		vps:             make([]*VP, k),
		idle:            make(chan struct{}, 1),
		sharedReadCost:  vtime.Duration(rt.gs.mach.SharedReadCost),
		sharedWriteCost: vtime.Duration(rt.gs.mach.SharedWriteCost),
	}
	widBase := int64(rt.node) << 32
	for i := 0; i < k; i++ {
		vp := &VP{d: d, nodeRank: i, wid: widBase | int64(i), resume: make(chan bool, 1)}
		d.vps[i] = vp
	}
	return d
}

// vpMain is the goroutine body of one VP in a one-shot (plan cache off)
// doRun: run the body once, report, exit.
func (d *doRun) vpMain(vp *VP, body func(*VP)) {
	defer func() { vp.reportExit(recover()) }()
	body(vp)
}

// reportExit reports the end of a VP body: r is what recover returned,
// nil for a normal return. It tells whether the body ran to completion
// (a warm worker then survives for another invocation).
func (vp *VP) reportExit(r any) (completed bool) {
	_, aborted := r.(vpAbort)
	if r != nil && !aborted {
		vp.report(evPanic, phaseInvalid,
			fmt.Errorf("core: VP %d on node %d panicked: %v", vp.nodeRank, vp.d.node, r))
		return false
	}
	vp.report(evExit, phaseInvalid, nil)
	return !aborted
}

// vpWorker is the goroutine body of one VP in a persistent (warm)
// doRun: it parks at the start gate between Dos and runs d.body once
// per true it receives. A false at the gate — sent by releaseWarm at
// run end or doRun teardown — retires the worker; so does any abort or
// panic inside the body, since both only happen while the run is dying
// and the doRun is then marked broken.
func (d *doRun) vpWorker(vp *VP) {
	for <-vp.resume {
		if !d.runBody(vp) {
			return
		}
	}
}

// runBody executes one Do invocation's body on a warm worker and
// reports the exit event. It returns whether the worker survives for
// another invocation.
func (d *doRun) runBody(vp *VP) (ok bool) {
	defer func() { ok = vp.reportExit(recover()) }()
	d.body(vp)
	return
}

// coordinate runs on the node's proc goroutine: it alternates between
// letting VPs run and performing phase opens/commits, until every VP has
// exited. A phase-shape violation (VPs disagreeing on the next phase) or
// a VP panic aborts the Do by panicking on the proc goroutine, which the
// cluster converts into a run error.
//
// Each step waits once, for the idle token of the boundary latch: by
// then every VP released for the step (status stRunning) has stored its
// event and parked or returned, so one scan over d.vps both collects the
// events and classifies the population.
func (d *doRun) coordinate() {
	alive := d.k
	var firstErr error

	for firstErr == nil {
		<-d.idle
		nBoundary, nEnd := 0, 0
		kind := phaseInvalid
		uniform := true
		for _, vp := range d.vps {
			if vp.status == stRunning {
				switch vp.evKind {
				case evBoundary:
					vp.status = stAtBoundary
				case evPhaseEnd:
					vp.status = stAtPhaseEnd
				case evPanic:
					if firstErr == nil {
						firstErr = vp.evErr
					}
					fallthrough
				case evExit:
					vp.status = stDead
					alive--
				}
			}
			switch vp.status {
			case stAtBoundary:
				nBoundary++
				if kind == phaseInvalid {
					kind = vp.evPk
				} else if kind != vp.evPk {
					uniform = false
				}
			case stAtPhaseEnd:
				nEnd++
			}
		}
		switch {
		case firstErr != nil:
			// a VP panicked: abort below
		case alive == 0:
			d.finish()
			return
		case nBoundary == alive && nEnd == 0 && uniform:
			// All alive VPs agree on the next phase: open it.
			d.openPhase(kind)
			d.release(stAtBoundary, alive)
		case nEnd == alive && nBoundary == 0:
			// All alive VPs completed the phase body: commit.
			if firstErr = d.commit(d.openKind); firstErr == nil {
				d.release(stAtPhaseEnd, alive)
			}
		default:
			firstErr = fmt.Errorf(
				"core: phase shape mismatch on node %d: %d VPs at a phase boundary, %d at a phase end, %d exited — all K VPs of a Do must execute the same phase sequence",
				d.node, nBoundary, nEnd, d.k-alive)
		}
	}
	// Teardown: abort all parked VPs and wait for their exits. A warm
	// doRun's workers retire on abort, so the doRun cannot serve another
	// invocation; mark it broken so the cache rebuilds instead of
	// reusing dead workers (only reachable if user code swallows the
	// panic below).
	d.broken = true
	if alive > 0 {
		d.pending.Store(int32(alive))
		for _, vp := range d.vps {
			if vp.status != stDead {
				vp.resume <- false
			}
		}
		<-d.idle
	}
	panic(firstErr)
}

// release resumes the n VPs parked with status s, arming the boundary
// latch for them before the first one can run.
func (d *doRun) release(s vpStatus, n int) {
	d.pending.Store(int32(n))
	for _, vp := range d.vps {
		if vp.status == s {
			vp.status = stRunning
			vp.resume <- true
		}
	}
}

// openPhase performs the phase-entry synchronization: global phases
// synchronize the cluster so every node's partitions are committed and
// stable before any VP reads them. After that barrier every node's doK
// is stable, so the GlobalRank/GlobalK prefix sums are computed here once
// instead of on every call.
func (d *doRun) openPhase(kind phaseKind) {
	if kind == phaseGlobal {
		if d.rt.gs.dist != nil {
			d.openPhaseDist()
		} else {
			d.rt.proc.Barrier()
			gs := d.rt.gs
			base := 0
			for n := 0; n < d.node; n++ {
				base += gs.doK[n]
			}
			total := base
			for n := d.node; n < gs.nodes; n++ {
				total += gs.doK[n]
			}
			d.rankBase, d.globalK, d.rankValid = base, total, true
		}
	}
	d.openKind = kind
	if d.rt.proc != nil {
		d.phaseStart = d.rt.proc.Clock()
	}
	d.phases++
}

// finish charges any leftover VP work accumulated after the last phase
// (or in a phase-less Do), merges residual counters, and returns the
// VPs' write buffers to their arrays' pools for the next Do.
func (d *doRun) finish() {
	mach := d.rt.gs.mach
	extra := vtime.Duration(0)
	if d.phases == 0 {
		extra = vtime.Duration(mach.VPStartCost)
	}
	if d.rt.proc != nil {
		d.rt.proc.Charge(d.makespan(extra))
	}
	st := d.rt.stats()
	for _, vp := range d.vps {
		st.SharedReads += vp.reads
		st.SharedWrites += vp.writes
		vp.charge, vp.reads, vp.writes = 0, 0, 0
		if d.persistent {
			// Keep the write buffers attached: the next warm invocation
			// of this Do shape reuses them (same VP, same writer id)
			// with their record and arena capacity intact, instead of
			// round-tripping through the pool.
			continue
		}
		for _, b := range vp.bufs {
			b.release()
		}
		vp.bufs = nil
	}
}
