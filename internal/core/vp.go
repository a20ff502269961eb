package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ppm/internal/vtime"
	"ppm/internal/wire"
)

// phaseKind distinguishes the two parallel phase constructs.
type phaseKind uint8

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

// vpAbort unwinds a VP body whose Do is being torn down.
type vpAbort struct{}

// intRun is a half-open interval [lo, hi) of shared-array indices.
type intRun struct {
	lo, hi int
}

// VP is a virtual processor: one of the K parallel instances of a PPM
// function started by Runtime.Do (the paper's PPM_do construct). All VP
// methods must be called from the VP's own body.
//
// A VP holds its identity, its place in the Do and its live charge; what
// it accesses inside a phase is kept in the lane it holds there (see
// lane), so that a VP costs what it touches, not a slab of tracking
// sized for every access it might make.
type VP struct {
	d *doRun
	// lane is where the VP's accesses go while it is inside a phase: one
	// it drew at a phase entry, or the one its pool worker passed on from
	// the VP before; nil while it waits for an open, and between the
	// phases of a VP that took its goroutine over (own).
	lane *lane

	// charge is the VP's live accumulator of modeled work: only the VP
	// touches it. When the VP passes ordinal o (ends phase o, or returns
	// without entering it) it moves the sum into snap[o&1], which the
	// coordinator takes at the commit of phase o (or in finish). A VP is
	// never more than one ordinal ahead of the coordinator, so the two
	// slots never collide. The snapshots stay per VP because makespan adds
	// them in rank order: they are floating point.
	charge vtime.Duration
	snap   [2]vtime.Duration

	nodeRank int32
	// ord is the ordinal of the next phase this VP enters: how many it has
	// ended in the current Do.
	ord int32
	// own marks a VP that had to wait for other ranks in this Do and so
	// took its pool worker's goroutine over (see doRun.awaitOpen); the
	// goroutine ends when the body returns.
	own bool

	// fast is set inside a phase of a run without StrictWrites: it is the
	// one test every shared access makes (accessCheck), and anything else
	// takes the out-of-line path. phaseKind is the kind of the phase the
	// VP is in, phaseInvalid outside any.
	fast      bool
	phaseKind phaseKind

	// The slab's VPs run on different cores, each updating its charge on
	// every shared access: padded to one cache line, neighbours never
	// share one (a slab of 64-byte elements is 64-byte aligned).
	_ [8]byte
}

// wid is the VP's writer id, (node<<32)|nodeRank, which its buffered
// writes carry to the commit.
func (vp *VP) wid() int64 { return int64(vp.d.node)<<32 | int64(vp.nodeRank) }

// vpStrict is one VP's StrictWrites state in the current phase: the
// elements it wrote or added (true once a read of one has been reported),
// and the stale reads it made, in order. The commit takes both
// (strictCommit). It lives in the doRun, not in the VP, so that the VP
// slab of a run without StrictWrites does not grow.
type vpStrict struct {
	written map[readKey]bool
	stale   []readKey
}

// A VP's scalar read log is first compacted at readLogCompactMin keys.
const readLogCompactMin = 4096

// readKey identifies one element of one shared array for the read cache in
// one word: the array id in the high keyArrayBits bits, the index in the
// low keyIdxBits. Keys compare as integers in (array, index) order.
// Registration refuses an array id or a Global length that would not fit
// (allocArray, AllocGlobal).
type readKey uint64

const (
	keyIdxBits   = 44
	keyArrayBits = 64 - keyIdxBits
	maxKeyArrays = 1 << keyArrayBits // array ids stay below it
	maxKeyLen    = 1 << keyIdxBits   // a Global's length stays at or below it
)

func makeReadKey(array, idx int) readKey {
	return readKey(uint64(array)<<keyIdxBits | uint64(idx))
}

func (k readKey) array() int { return int(k >> keyIdxBits) }
func (k readKey) idx() int   { return int(k & (maxKeyLen - 1)) }

// NodeRank returns this VP's rank within its node's Do, in [0, K)
// (PPM_VP_node_rank).
func (vp *VP) NodeRank() int { return int(vp.nodeRank) }

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
// once at phase open instead of per call. Anywhere else (before the Do's
// first global phase, or outside a phase, where the coordinator may be
// opening the next one) the answer assumes that every node's Do started
// this node's K, which is all a VP can know without synchronizing.
func (vp *VP) GlobalRank() int {
	if d := vp.d; vp.phaseKind != phaseInvalid && d.rankValid {
		return d.rankBase + int(vp.nodeRank)
	}
	return vp.d.node*vp.d.k + int(vp.nodeRank)
}

// GlobalK returns the total VP count across all nodes' current Do calls.
// Like GlobalRank, it is well defined only inside a global phase, and
// assumes equal K on every node elsewhere.
func (vp *VP) GlobalK() int {
	if d := vp.d; vp.phaseKind != phaseInvalid && d.rankValid {
		return d.globalK
	}
	return vp.d.rt.gs.nodes * vp.d.k
}

// Charge adds d of modeled computation to this VP's work in the current
// phase (or the inter-phase segment).
func (vp *VP) Charge(d vtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("core: VP %d charged negative duration %v", vp.nodeRank, d))
	}
	vp.charge += d
}

// chargeEach adds d to the VP's charge n times, once per element of a
// block access, so that the float accumulation stays bit-identical to n
// scalar accesses; a real run charges nothing. The sum runs in a local,
// not through the field.
func (vp *VP) chargeEach(d vtime.Duration, n int) {
	if d == 0 {
		return
	}
	c := vp.charge
	for ; n > 0; n-- {
		c += d
	}
	vp.charge = c
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
	if vp.phaseKind != phaseInvalid {
		panic(fmt.Sprintf("core: nested phase construct (VP %d on node %d)", vp.nodeRank, vp.d.node))
	}
	d, o := vp.d, vp.ord
	if d.opened.Load() <= o {
		d.awaitOpen(vp, o, pk)
	}
	if kind := phaseKind(d.kind[o&1].Load()); kind != pk {
		d.fail(fmt.Errorf(
			"core: phase shape mismatch on node %d: VP %d enters a %v phase where another VP entered a %v phase (phase %d of the Do; VPs that returned earlier do not count) — all K VPs of a Do must execute the same phase sequence",
			d.node, vp.nodeRank, pk, kind, o))
		panic(vpAbort{})
	}
	if vp.lane == nil {
		vp.lane = d.takeLane()
	}
	vp.phaseKind, vp.fast = pk, !d.strict
	f()
	vp.phaseKind, vp.fast = phaseInvalid, false
	vp.lane.close(&d.segs[vp.nodeRank])
	if vp.own {
		d.putLane(vp.lane)
		vp.lane = nil
	}
	vp.ord = o + 1
	vp.pass(o)
}

// pass counts the VP off ordinal o: it has ended phase o, or (from exit)
// returned without entering it. The atomic decrement publishes the charge
// snapshot and everything else the VP wrote; the VP that completes the
// tally wakes the coordinator. Nobody waits here: the VP runs on.
func (vp *VP) pass(o int32) {
	vp.snap[o&1], vp.charge = vp.charge, 0
	if vp.d.rem[o&1].Add(-1) == 0 {
		vp.d.wake()
	}
}

// accessCheck guards every shared access: a write (or read) of elements
// [lo, hi) of the array with id and name. Its one test passes inside a
// phase of a run without StrictWrites; anything else goes to
// checkAccess.
func (vp *VP) accessCheck(id int, name, op string, lo, hi int, write bool) {
	if !vp.fast {
		vp.checkAccess(id, name, op, lo, hi, write)
	}
}

// checkAccess is accessCheck's out-of-line path. Outside a phase it
// panics. In a strict phase it notes the elements a write updates, and
// reports once each element a read returns that the VP updated earlier in
// the phase: the read sees the begin-of-phase value, not the update. A
// range no array holds is left to the accessor, which refuses it.
func (vp *VP) checkAccess(id int, name, op string, lo, hi int, write bool) {
	if vp.phaseKind == phaseInvalid {
		panic(fmt.Sprintf("core: %s of shared %q outside a phase (VP %d on node %d): shared variables may only be accessed inside PPM phases",
			op, name, vp.nodeRank, vp.d.node))
	}
	if lo < 0 || lo > hi || hi > maxKeyLen {
		return
	}
	s := &vp.d.strictVPs[vp.nodeRank]
	if s.written == nil {
		s.written = map[readKey]bool{}
	}
	for i := lo; i < hi; i++ {
		k := makeReadKey(id, i)
		reported, ok := s.written[k]
		switch {
		case write && !ok:
			s.written[k] = false
		case !write && ok && !reported:
			s.written[k] = true
			s.stale = append(s.stale, k)
		}
	}
}

// noteRemoteRead accounts one remote element read for bundling. The
// runtime keeps a node-level cache of remote values in node shared
// memory: within a phase the element is immutable, so the node fetches it
// at most once no matter how many VPs read it. Each VP appends to its own
// log in its lane without locking (skipping an immediate repeat); the
// commit sorts and dedups the logs' union, so a key logged twice counts
// once.
//
// The log stays O(distinct keys): once it has doubled since its last
// compaction it is sorted and deduplicated in place, so a VP rereading a
// few remote scalars forever holds a few keys. Compaction points depend
// only on the VP's own read sequence, so a deterministic body reproduces
// the same log and plan validation (plan.go) still matches.
func (vp *VP) noteRemoteRead(array, idx, owner, elemBytes int) {
	l := vp.lane
	if vp.d.rt.gs.opt.NoReadCache {
		l.countRemote(vp.d.rt.gs.nodes, owner, 1, int64(elemBytes))
		return
	}
	key := makeReadKey(array, idx)
	log := &l.keys
	n := len(log.cur)
	if n > 0 && log.cur[n-1] == key {
		return
	}
	if n >= max(2*l.mark, readLogCompactMin) {
		slices.Sort(log.cur)
		log.cur = slices.Compact(log.cur)
		l.mark = len(log.cur)
	}
	log.add(key, &vp.d.keyPool)
}

// noteRemoteRun accounts a remote block read of [lo, hi) as one interval
// run — the bulk counterpart of noteRemoteRead. The caller has already
// split the range so that one owner serves all of it. A run that starts
// inside or right after the VP's last run of the array extends it.
func (vp *VP) noteRemoteRun(array, lo, hi, owner, elemBytes int) {
	l := vp.lane
	if vp.d.rt.gs.opt.NoReadCache {
		l.countRemote(vp.d.rt.gs.nodes, owner, int64(hi-lo), int64((hi-lo)*elemBytes))
		return
	}
	if array >= len(l.last) {
		l.last = append(l.last, make([]int, len(vp.d.rt.gs.arrays)-len(l.last))...)
	}
	// last[array] may be left from an earlier holder or phase: it is this
	// VP's only if it lies in the VP's part and names the array (an index
	// this VP filled with another array's run was never this array's
	// last, since appending a run of the array moves last).
	cur := l.runs.cur
	if j := l.last[array]; j < len(cur) && cur[j].lo.array() == array {
		if r := &cur[j]; lo >= r.lo.idx() && lo <= r.hi {
			r.hi = max(r.hi, hi)
			return
		}
	}
	l.last[array] = len(cur)
	l.runs.add(laneRun{lo: makeReadKey(array, lo), hi: hi}, &vp.d.runPool)
}

// lane holds the phase bookkeeping of the VPs that run on it: their
// scalar read logs, block-read runs, access counters and buffered writes.
// A lane has one holder at a time: the VP that drew it at a phase entry
// (takeLane), or the pool worker that passes it from one VP to the next.
// A VP's body runs on one goroutine from one end of a phase to the other
// (a remote fetch waits in place), so min(K, GOMAXPROCS) lanes (laneCh
// bounds them) serve a Do of any K. The VPs that hold a lane in one
// phase store their items one after another (see chunked); each VP's
// laneSeg says where its parts lie, and the commit reads the parts in
// rank order, then empties the lane (resetLane).
type lane struct {
	id uint16 // index in doRun.lanes

	// keys is the scalar read log; mark is the length of the holder's
	// log after its last compaction (0 when there was none; see
	// noteRemoteRead).
	keys chunked[readKey]
	mark int
	// runs holds the block-read runs; last[a] is the index in the
	// holder's part of its last run of array a, if it is one (see
	// noteRemoteRun).
	runs chunked[laneRun]
	last []int

	reads, writes    int64
	rrElems, rrBytes []int64 // remote read elements and bytes per owner node (NoReadCache)

	// bufs holds one write buffer per array written on the lane; touch
	// holds, holder by holder, which buffers each wrote and where its
	// records lie in them.
	bufs  []vpFlusher
	touch chunked[laneTouch]
}

// laneRun is a block-read run: elements [lo.idx(), hi) of array
// lo.array().
type laneRun struct {
	lo readKey
	hi int
}

// laneTouch says that VP's records in the lane's buffer bufs[buf] are
// part (chunk, lo, hi) of the buffer's records (set when the VP's phase
// ends).
type laneTouch struct {
	buf, chunk, lo, hi int32
}

// laneSeg is one VP's part of the lane it ran the current phase on: one
// part (chunk, lo, hi) of each of the lane's chunked stores. The zero
// laneSeg, a VP that did not run the phase, holds nothing. Lane and chunk
// numbers take 16 bits, so that a laneSeg is 32 bytes and a K-sized table
// of them comes from a wire.Pool: a Do has at most maxLanes lanes, and a
// lane at most 2^16 chunks of one kind in one phase (chunked.end), which
// is more than 2^26 items.
type laneSeg struct {
	lane                       uint16
	keyChunk, runChunk, wChunk uint16
	keyLo, keyHi               int32
	runLo, runHi               int32
	wLo, wHi                   int32
}

// maxLanes bounds a doRun's lanes: a laneSeg names its lane in 16 bits.
const maxLanes = 1 << 16

// chunked is a lane's store of one kind of item for the current phase:
// its holders' parts one after another, each contiguous in one chunk, so
// that a part is one slice and the storage follows what is stored,
// without the copies and the slack of a slice grown by doubling. A lane's
// chunks start small and double up to chunkMax items; a part that
// outgrows its chunk moves to the next, leaving its old copy behind.
// Chunks come from a chunkPool shared by the doRun's lanes and go back to
// it when the commit has read them, so what the lanes hold in all
// follows what a phase stores, however the VPs fell on the lanes. A
// chunk may hold another run's items: nothing reads an item that its
// part has not written.
type chunked[E any] struct {
	list [][]E // this phase's chunks, the last the current one
	off  int   // where the holder's part starts in the current chunk
	cur  []E   // the holder's part, with room up to the current chunk's end
}

// A chunk holds from chunkMin to chunkMax items, more only for a part
// that outgrows chunkMax. A list of chunks has room for chunkLists of
// them when first made (about 12,000 items), so that it seldom grows in
// a warm Do, whatever share of the items its lane gets.
const (
	chunkMin    = 16
	chunkDouble = 6 // chunkMax is chunkMin doubled this often
	chunkMax    = chunkMin << chunkDouble
	chunkLists  = 16
)

// part returns part (chunk, lo, hi) of list.
func part[E any, C uint16 | int32](list [][]E, chunk C, lo, hi int32) []E {
	if lo == hi {
		return nil
	}
	return list[chunk][lo:hi]
}

// add appends e to the holder's part, moving the part to a chunk from
// pool when the current one is full.
func (c *chunked[E]) add(e E, pool *chunkPool[E]) {
	if len(c.cur) == cap(c.cur) {
		c.grow(pool)
	}
	c.cur = append(c.cur, e)
}

// grow moves the holder's part to the start of a new chunk from pool,
// with room for twice its items and at least twice the previous chunk's.
func (c *chunked[E]) grow(pool *chunkPool[E]) {
	n := len(c.cur)
	ch := pool.take(max(2*n, chunkMin<<min(len(c.list), chunkDouble)))
	c.list = append(slices.Grow(c.list, chunkLists), ch)
	copy(ch, c.cur)
	c.off, c.cur = 0, ch[:n]
}

// end ends the holder's part and returns where it lies.
func (c *chunked[E]) end() (chunk uint16, lo, hi int32) {
	if len(c.list) > 1<<16 {
		panic(fmt.Sprintf("core: %d chunks of one kind on one lane in one phase, more than a laneSeg can name", len(c.list)))
	}
	chunk, lo, hi = uint16(len(c.list)-1), int32(c.off), int32(c.off+len(c.cur))
	c.off += len(c.cur)
	c.cur = c.cur[len(c.cur):]
	return chunk, lo, hi
}

// release hands every chunk of the store to pool and empties it.
func (c *chunked[E]) release(pool *chunkPool[E]) {
	pool.put(c.list...)
	clear(c.list)
	c.list, c.off, c.cur = c.list[:0], 0, nil
}

// chunkPool holds a doRun's chunks of one kind that no lane and no plan
// holds: the lanes draw from it during a phase, the coordinator fills it
// between phases. A miss draws from src, the element type's process-wide
// pool, which every chunk goes back to when the run ends (release).
type chunkPool[E any] struct {
	mu   sync.Mutex
	free [][]E
	src  *wire.Pool[E]
}

// take returns the smallest chunk of at least need items, so that the
// large ones stay for the parts that need them, or one from src; nil for
// none.
func (p *chunkPool[E]) take(need int) []E {
	if need == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, ch := range p.free {
		if len(ch) >= need && (best < 0 || len(ch) < len(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		ch := p.src.Get(need)
		return ch[:cap(ch)]
	}
	ch, last := p.free[best], len(p.free)-1
	p.free[best] = p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	return ch
}

// put adds the non-nil chunks of list to the pool.
func (p *chunkPool[E]) put(list ...[]E) {
	p.mu.Lock()
	for _, ch := range list {
		if ch != nil {
			p.free = append(p.free, ch)
		}
	}
	p.mu.Unlock()
}

// release hands every chunk of the pool to src.
func (p *chunkPool[E]) release() {
	for _, ch := range p.free {
		p.src.Put(ch)
	}
	p.free = nil
}

// close ends the holder's parts at phase end and records them in s. The
// next holder's parts start where these end.
func (l *lane) close(s *laneSeg) {
	for i := range l.touch.cur {
		t := &l.touch.cur[i]
		t.chunk, t.lo, t.hi = l.bufs[t.buf].endPart()
	}
	s.lane = l.id
	s.keyChunk, s.keyLo, s.keyHi = l.keys.end()
	s.runChunk, s.runLo, s.runHi = l.runs.end()
	s.wChunk, s.wLo, s.wHi = l.touch.end()
	l.mark = 0
}

// keysOf, runsOf and touchesOf return VP part s of the lanes' stores.
func (d *doRun) keysOf(s *laneSeg) []readKey {
	return part(d.lanes[s.lane].keys.list, s.keyChunk, s.keyLo, s.keyHi)
}

func (d *doRun) runsOf(s *laneSeg) []laneRun {
	return part(d.lanes[s.lane].runs.list, s.runChunk, s.runLo, s.runHi)
}

func (d *doRun) touchesOf(s *laneSeg) []laneTouch {
	return part(d.lanes[s.lane].touch.list, s.wChunk, s.wLo, s.wHi)
}

// countRemote tallies uncached remote-read traffic directly (NoReadCache:
// every fine-grained read is fresh traffic).
func (l *lane) countRemote(nodes, owner int, elems, bytes int64) {
	if l.rrElems == nil {
		l.rrElems = make([]int64, nodes)
		l.rrBytes = make([]int64, nodes)
	}
	l.rrElems[owner] += elems
	l.rrBytes[owner] += bytes
}

// resetLane empties l after a commit: its chunks go back to the doRun's
// pools. The buffers stay bound to their arrays for the next phase.
func (d *doRun) resetLane(l *lane) {
	l.keys.release(&d.keyPool)
	l.runs.release(&d.runPool)
	l.touch.release(&d.touchPool)
	for _, b := range l.bufs {
		b.reset()
	}
}

// takeLane draws a lane for a VP entering a phase, waiting for one when
// all are held: a free one, or, while fewer exist than laneCh holds
// tokens, a new one (a nil token). putLane hands it back. A free lane may
// still hold parts of the current phase; its next holder stores after
// them. The bound keeps the lanes at the worker count, however many VPs
// that took their goroutines over run a phase at once.
func (d *doRun) takeLane() *lane {
	l := <-d.laneCh
	if l == nil {
		d.mu.Lock()
		l = &lane{id: uint16(len(d.lanes))}
		d.lanes = append(d.lanes, l)
		d.mu.Unlock()
	}
	return l
}

func (d *doRun) putLane(l *lane) { d.laneCh <- l }

// dropLanes forgets every lane, which must all be free.
func (d *doRun) dropLanes() {
	for range cap(d.laneCh) {
		<-d.laneCh
		d.laneCh <- nil
	}
	d.lanes = nil
}

// resetLanes empties every lane and segment once a commit has read them.
func (d *doRun) resetLanes() {
	for _, l := range d.lanes {
		d.resetLane(l)
	}
	clear(d.segs)
}

// takeSegs draws an empty segment table for k VPs from its pool: a pooled
// table holds another Do's segments.
func takeSegs(k int) []laneSeg {
	s := poolFor[wire.Pool[laneSeg]]().Get(k)[:k]
	clear(s)
	return s
}

// putSegs hands a segment table (or nil) back to its pool.
func putSegs(s []laneSeg) { poolFor[wire.Pool[laneSeg]]().Put(s) }

// takeVPs fills a slab from its pool with d's K VPs; release hands it
// back.
func (d *doRun) takeVPs() {
	d.vps = poolFor[wire.Pool[VP]]().Get(d.k)[:d.k]
	for i := range d.vps {
		d.vps[i] = VP{d: d, nodeRank: int32(i)}
	}
}

// putVPs hands d's slab back to its pool, every pointer in it cleared, so
// that the pooled slab pins neither d nor a lane.
func (d *doRun) putVPs() {
	clear(d.vps[:cap(d.vps)])
	poolFor[wire.Pool[VP]]().Put(d.vps)
	d.vps = nil
}

// doRun coordinates one Do invocation on one node. With the plan cache
// on it is reused across Do invocations of the same shape (see plan.go):
// its VP slab, its lanes, its scratch and its recorded phase plans carry
// across, which is what makes warm iterations allocation-free.
//
// Scheduling (DESIGN.md §4.4). VP bodies run as plain calls on pool
// workers, min(K, GOMAXPROCS) goroutines that take ranks from next. Phases
// are opened and committed by the coordinator alone (coordinate, on the
// node's proc goroutine, which owns the cluster barrier and the
// transport): the first VP to reach ordinal o posts the kind it wants in
// kind[o&1], the coordinator opens it and advances opened, and every VP
// that ends the phase body counts itself off rem[o&1] and keeps running.
// A VP waits only at a phase entry: for the coordinator to open it, or
// for a lane.
type doRun struct {
	rt   *Runtime
	node int
	k    int
	vps  []VP

	// lanes are the doRun's lanes (grown under mu, and only by a VP
	// entering a phase, which holds the commit off); laneCh holds a token
	// for each lane no VP holds, and a nil one for each lane not yet made.
	// segs[r] is VP r's part of its lane in the phase being run (the zero
	// laneSeg when it has not run it). keyPool, runPool and touchPool
	// hold the chunks of those kinds no lane or plan holds (and lend the
	// merge its scratch), recPools (array -> *chunkPool[writeRec[T]]) the
	// lanes' write records' for each array written. The coordinator reads
	// lanes and segs only between phases.
	lanes     []*lane
	laneCh    chan *lane
	segs      []laneSeg
	keyPool   chunkPool[readKey]
	runPool   chunkPool[laneRun]
	touchPool chunkPool[laneTouch]
	recPools  map[any]interface{ release() }

	// persistent marks a cached (warm) doRun; body is the current
	// invocation's body (re-set per Do: closures with the same code
	// pointer may capture different state).
	persistent bool
	body       func(*VP)
	workFn     func() // d.work, bound once so that starting a worker allocates nothing

	// next is the lowest rank no worker has taken yet.
	next atomic.Int32
	// opened counts the phases opened in this Do: ordinal o is open once
	// opened > o. Only the coordinator stores it, under mu.
	opened atomic.Int32
	// Per-ordinal state, indexed by the ordinal's parity: a VP enters
	// phase o+1 only after phase o has committed, so nobody is more than
	// one ordinal ahead of the coordinator and ordinal o+2 reuses o's slot
	// only after o is done with it. kind is what ordinal o was asked for
	// (stored once from zero by the first VP to reach it, cleared by the
	// coordinator after the commit). rem is how many VPs have yet to pass
	// the ordinal: VPs count down, and the coordinator adds the number
	// alive once it knows it, so the sum is zero exactly when all have
	// passed, whichever came first. exits is how many of them passed by
	// returning.
	kind  [2]atomic.Int32
	rem   [2]atomic.Int32
	exits [2]atomic.Int32
	// active counts the goroutines inside this Do (pool workers, and the
	// goroutines VPs took over from them); the one that brings it to zero
	// wakes the coordinator.
	active atomic.Int32

	// wakeup is the coordinator's one-slot wake token: whoever changes
	// something the coordinator may be waiting for drops a token in (or
	// finds one there), and the coordinator re-reads the state after it.
	wakeup chan struct{}

	// cond (over mu) is what VPs wait on for a phase to open. mu guards
	// err, and lanes while VPs run; aborted and opened change only under
	// it.
	mu      sync.Mutex
	cond    sync.Cond
	aborted atomic.Bool // the Do is being torn down: waiters unwind, workers stop
	err     error       // first VP failure

	// plans[i] is the recorded plan of the i-th phase of this Do shape
	// (node phases occupy slots but are never consulted).
	plans []phasePlan

	phases     int64
	phaseStart vtime.Time
	openKind   phaseKind // kind of the phase currently open (set by openPhase)

	// Global-rank cache: the doK prefix sums are stable while a global
	// phase is open (every node is synchronously inside its Do), so they
	// are computed once at phase open. The coordinator writes them before
	// it advances opened, and a VP reads them only inside a phase, after
	// its load of opened; the next write comes after that VP has passed.
	rankBase  int
	globalK   int
	rankValid bool

	// strict is the run's StrictWrites, which the VPs read at phase entry;
	// strictVPs is the VPs' strict state, by rank (nil without it).
	strict    bool
	strictVPs []vpStrict

	// Commit-time scratch reused across phases (and, for a persistent
	// doRun, across Dos): the per-peer send tally, the merged per-owner
	// remote-read counters, and the per-source incoming counters.
	ctally   sendTally
	crrElems []int64
	crrBytes []int64
	cinElems []int64
	cinBytes []int64

	// Global-commit exchange scratch (see exchange): the outgoing and
	// incoming stream slices, per-destination raw and delta-encode
	// buffers, per-source decode buffers, and the stream cursors. The raw
	// buffers come from wireStaging and go back with release.
	cout    [][]byte
	cin     [][]byte
	coutRaw []*[]byte
	coutEnc [][]byte
	cdec    [][]byte
	ccurs   []commitCursor

	// Phase-open scratch: per-owner results of a several-owner prefetch.
	pferrs []error

	// Per-access modeled costs; zero on a real run, which charges no
	// virtual time.
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

	if rt.gs.opt.NoPlanCache {
		newDoRun(rt, k).run(body)
		return
	}
	rt.warmDoRun(k, body).run(body)
}

// newDoRun builds a doRun with its K VPs as one slab.
func newDoRun(rt *Runtime, k int) *doRun {
	d := &doRun{
		rt:     rt,
		node:   rt.node,
		k:      k,
		wakeup: make(chan struct{}, 1),
	}
	d.cond.L = &d.mu
	d.workFn = d.work
	d.keyPool.src = poolFor[wire.Pool[readKey]]()
	d.runPool.src = poolFor[wire.Pool[laneRun]]()
	d.touchPool.src = poolFor[wire.Pool[laneTouch]]()
	d.bind(rt)
	d.takeVPs()
	d.laneCh = make(chan *lane, min(k, runtime.GOMAXPROCS(0), maxLanes))
	for range cap(d.laneCh) {
		d.laneCh <- nil
	}
	return d
}

// bind attaches d to rt's run. A real run (no simulated process) never
// reads a VP's charge, so its per-access costs stay zero and the block
// accessors skip their charging loops.
func (d *doRun) bind(rt *Runtime) {
	d.rt = rt
	d.strict = rt.gs.opt.StrictWrites
	d.sharedReadCost, d.sharedWriteCost = 0, 0
	if rt.proc != nil {
		d.sharedReadCost = vtime.Duration(rt.gs.mach.SharedReadCost)
		d.sharedWriteCost = vtime.Duration(rt.gs.mach.SharedWriteCost)
	}
}

// run executes one Do invocation on d: it resets the per-invocation
// state, starts the pool workers, and coordinates until every VP has
// returned and every goroutine has left. A VP
// failure, a commit error or a panic out of the coordinator's own calls
// (a transport abort) tears the Do down before it propagates.
func (d *doRun) run(body func(*VP)) {
	d.body = body
	if d.vps == nil {
		d.takeVPs() // released with the warm session's last run
	}
	d.phases, d.openKind, d.rankValid = 0, phaseInvalid, false
	d.next.Store(0)
	d.opened.Store(0)
	for p := range d.rem {
		d.kind[p].Store(0)
		d.rem[p].Store(0)
		d.exits[p].Store(0)
	}
	d.rem[0].Store(int32(d.k))
	if d.strict {
		if d.strictVPs == nil {
			d.strictVPs = make([]vpStrict, d.k)
		}
		d.snapLocal()
	}

	workers := min(d.k, runtime.GOMAXPROCS(0))
	d.active.Store(int32(workers))
	for i := 0; i < workers; i++ {
		go d.workFn()
	}

	clean := false
	defer func() {
		if !clean {
			d.teardown()
		}
	}()
	if err := d.coordinate(); err != nil {
		panic(err)
	}
	clean = true
}

// work is a pool worker: it runs the bodies of the ranks it takes, one
// after another, as plain calls. The lane the first of them draws at its
// first phase entry passes from VP to VP, unless one hands it back while
// it waits for an open (awaitOpen).
func (d *doRun) work() {
	var l *lane
	for !d.aborted.Load() {
		r := int(d.next.Add(1)) - 1
		if r >= d.k {
			break
		}
		vp := &d.vps[r]
		vp.lane = l
		d.runVP(vp)
		l, vp.lane = vp.lane, nil
		if vp.own {
			// The VP had to wait for other ranks and handed its place in
			// the pool to a new worker: this goroutine ends with its body.
			vp.own = false
			break
		}
	}
	if l != nil {
		d.putLane(l)
	}
	d.leave()
}

// leave counts the calling goroutine out of the Do.
func (d *doRun) leave() {
	if d.active.Add(-1) == 0 {
		d.wake()
	}
}

// wake makes the coordinator look at the doRun's state again.
func (d *doRun) wake() {
	select {
	case d.wakeup <- struct{}{}:
	default: // a token is waiting: the coordinator has yet to look
	}
}

// runVP runs the current body once for vp and counts the VP off.
func (d *doRun) runVP(vp *VP) {
	vp.ord = 0
	defer vp.exit()
	d.body(vp)
}

// exit ends a VP body (deferred by runVP). A normal return passes the
// VP's current ordinal as an exit; a panic fails the Do; vpAbort is the
// unwinding of a Do that has already failed.
func (vp *VP) exit() {
	switch r := recover(); r.(type) {
	case nil:
		vp.d.exits[vp.ord&1].Add(1)
		vp.pass(vp.ord)
	case vpAbort:
	default:
		vp.d.fail(fmt.Errorf("core: VP %d on node %d panicked: %v", vp.nodeRank, vp.d.node, r))
	}
}

// fail records the Do's first failure and aborts it.
func (d *doRun) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	d.abort()
}

// abort starts the teardown of the Do: waiters unwind, workers take no
// further rank, the coordinator is woken.
func (d *doRun) abort() {
	d.mu.Lock()
	d.aborted.Store(true)
	d.mu.Unlock()
	d.cond.Broadcast()
	d.wake()
}

// failure returns the error the Do failed with, nil while it has not.
func (d *doRun) failure() error {
	if !d.aborted.Load() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// awaitOpen is the slow path of a phase entry: ordinal o is not open.
// The first VP here posts the kind it wants, which is what the
// coordinator waits for once phase o-1 has committed.
//
// Waiting occupies the goroutine the body is running on. At ordinal 0,
// or once every rank has been taken, that is harmless: the open depends
// on the coordinator alone, so the worker just blocks (handing it over
// would only put a goroutine under every VP again). But while ranks
// remain untaken, phase o-1 cannot commit before they have run through
// it, and they need a worker: the VP then keeps this goroutine for itself
// and starts a replacement worker in its place. Either way the VP hands
// its lane back first: a waiting VP holds none, so every lane's holder
// is running and the VPs that wait for one (takeLane) get one.
func (d *doRun) awaitOpen(vp *VP, o int32, pk phaseKind) {
	if d.kind[o&1].CompareAndSwap(0, int32(pk)) {
		d.wake()
	}
	if vp.lane != nil {
		d.putLane(vp.lane)
		vp.lane = nil
	}
	if o > 0 && !vp.own && int(d.next.Load()) < d.k {
		vp.own = true
		d.active.Add(1)
		go d.workFn()
	}
	d.mu.Lock()
	for d.opened.Load() <= o && !d.aborted.Load() {
		d.cond.Wait()
	}
	d.mu.Unlock()
	if d.opened.Load() <= o {
		panic(vpAbort{})
	}
}

// coordinateGap is a test seam, nil outside one test: coordinate calls it
// between its failure check and its look at active, the window in which a
// VP can fail and leave.
var coordinateGap func(*doRun)

// coordinate runs on the node's proc goroutine: it opens each phase some
// VP asks for, commits it once every VP alive has passed it, and returns
// when all goroutines have left the Do. It returns the error of a failed
// Do (a VP panic, a phase-shape violation, a commit error), which run
// raises on the proc goroutine, where the cluster converts it into a run
// error.
func (d *doRun) coordinate() error {
	alive := int32(d.k)
	for o := int32(0); ; o++ {
		p := o & 1
		// Phase o opens when the first VP reaches it; if every VP alive
		// returns instead, the Do drains.
		var kind phaseKind
		for {
			if err := d.failure(); err != nil {
				return err
			}
			if kind = phaseKind(d.kind[p].Load()); kind != phaseInvalid {
				break
			}
			if coordinateGap != nil {
				coordinateGap(d)
			}
			if d.active.Load() == 0 {
				// A VP that failed between the check above and this one
				// did so before it left, so the failure is visible now.
				if err := d.failure(); err != nil {
					return err
				}
				d.finish(p)
				return nil
			}
			<-d.wakeup
		}
		d.openPhase(kind)
		d.mu.Lock()
		d.opened.Store(o + 1)
		d.mu.Unlock()
		d.cond.Broadcast()

		for d.rem[p].Load() != 0 {
			if err := d.failure(); err != nil {
				return err
			}
			<-d.wakeup
		}
		// Every VP alive at ordinal o has passed it. Those that returned
		// are gone for good; the others are what ordinal o+1 waits for
		// (some may have passed it already, by returning).
		alive -= d.exits[p].Swap(0)
		d.rem[1-p].Add(alive)
		if err := d.commit(kind, p); err != nil {
			return err
		}
		d.kind[p].Store(0)
	}
}

// teardown ends a Do that did not run to completion: it aborts every
// waiting VP, waits until the last goroutine has left the Do and drops d
// from the warm cache, so that nothing of it outlives the error that
// follows.
func (d *doRun) teardown() {
	d.abort()
	for d.active.Load() != 0 {
		<-d.wakeup
	}
	for key, w := range d.rt.warm {
		if w == d {
			delete(d.rt.warm, key)
		}
	}
}

// openPhase performs the phase-entry synchronization: global phases
// synchronize the cluster (the simulator's barrier, the mesh's doK
// exchange) so every node's partitions are committed and stable before
// any VP reads them. After it every node's doK is stable, so the
// GlobalRank/GlobalK prefix sums are computed here once instead of on
// every call.
func (d *doRun) openPhase(kind phaseKind) {
	if kind == phaseGlobal {
		gs := d.rt.gs
		if gs.dist != nil {
			d.openPhaseDist()
		} else {
			d.rt.proc.Barrier()
		}
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
	if d.segs == nil {
		d.segs = takeSegs(d.k) // a plan took the last table (plan.go)
	}
	d.openKind = kind
	if d.rt.proc != nil {
		d.phaseStart = d.rt.proc.Clock()
	}
	d.phases++
}

// finish charges the VP work accumulated after the last phase (or in a
// phase-less Do), which the VPs left in snapshot slot p when they
// returned, merges residual counters, and, unless d is warm, hands its
// phase scratch to the pools for the next Do.
func (d *doRun) finish(p int32) {
	mach := d.rt.gs.mach
	extra := vtime.Duration(0)
	if d.phases == 0 {
		extra = vtime.Duration(mach.VPStartCost)
	}
	if d.rt.proc != nil {
		d.rt.proc.Charge(d.makespan(p, extra))
	}
	if d.strict {
		// What the VPs wrote through a retained Local slice after their
		// last phase.
		if err := d.strictCommit(d.rt.gs.phaseSeqs[d.node]); err != nil {
			d.noteStrict(err)
		}
	}
	// A warm doRun keeps its scratch: the next invocation of this Do
	// shape in the run reuses it, instead of round-tripping through the
	// pools. It goes back when the run ends.
	if !d.persistent {
		d.release()
	}
}
