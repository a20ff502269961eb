package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"ppm/internal/mp"
	"ppm/internal/vtime"
	"ppm/internal/wire"
)

// sendTally accumulates, per destination node, the outgoing write traffic
// flushed from VP buffers at a phase commit.
type sendTally struct {
	elems      []int64 // per dst, remote write elements
	bytes      []int64 // per dst, remote write payload bytes (value+index)
	localElems int64
	localBytes int64
}

// vpFlusher is the per-(lane, array) write buffer interface: the
// coordinator drains each VP's records (one laneTouch) in VP rank order
// at each commit, which fixes the merge order and makes commits
// deterministic.
type vpFlusher interface {
	// flushGlobal stages or encodes one VP's records (its touch t) for
	// the global-phase exchange (node-array records apply immediately;
	// they are node-local by nature).
	flushGlobal(d *doRun, ts *sendTally, phaseSeq int64, t *laneTouch) error
	// flushNode applies one VP's records immediately (node-phase commit)
	// and returns the applied payload bytes.
	flushNode(d *doRun, phaseSeq int64, t *laneTouch) (bytes int64, err error)
	// owner identifies the array this buffer is bound to.
	owner() any
	// endPart ends the lane holder's records and returns where they lie.
	endPart() (chunk, lo, hi int32)
	// reset empties the buffer once the commit has read it.
	reset()
	// release hands the buffer's arena back to its pool (see
	// doRun.release).
	release()
}

// Phase scratch outlives the run it serves. A new job allocates new
// arrays and builds new doRuns, whose scratch would regrow from empty in
// every program run; instead it recycles by two rules. Inside a run, a
// doRun's chunkPools pass chunks from one phase to the next. Across runs,
// every chunk, write arena and array storage comes from the process-wide
// wire.Pool of its element type and goes back to it when its run ends
// (doRun.release, arrayCore.store), and every per-peer wire buffer (an
// array's wout, a doRun's raw commit streams) from wireStaging. A failed
// run drops what it holds. They are sync.Pools, so a collection empties
// them and an idle process keeps nothing, and what goes back is a bare
// slice, so a pool never pins a finished run.
var pools sync.Map // reflect.Type of *pool -> *pool

// poolFor returns the process-wide pool of type P, made on first use. It
// is keyed by reflect.Type because Elem admits ~ types, which no type
// switch can enumerate: the type of *P, which a nil pointer names without
// boxing a P, so that a lookup allocates nothing.
func poolFor[P any]() *P {
	key := reflect.TypeOf((*P)(nil))
	if p, ok := pools.Load(key); ok {
		return p.(*P)
	}
	p, _ := pools.LoadOrStore(key, new(P))
	return p.(*P)
}

// wireStaging is the pool of per-peer wire buffers (Global.wout and a
// doRun's raw commit streams), boxed so that a Put does not allocate.
var wireStaging = sync.Pool{New: func() any { return new([]byte) }}

// takeWire draws an empty wire buffer from wireStaging for every one of
// n nodes but self.
func takeWire(n, self int) []*[]byte {
	bs := make([]*[]byte, n)
	for i := range bs {
		if i != self {
			bs[i] = wireStaging.Get().(*[]byte)
		}
	}
	return bs
}

// putWire hands the buffers in bs back to wireStaging, emptied, and
// forgets them. One that never grew is dropped: in the pool it could only
// stand in for one that did.
func putWire(bs []*[]byte) {
	for i, b := range bs {
		if b != nil && cap(*b) > 0 {
			*b = (*b)[:0]
			wireStaging.Put(b)
		}
		bs[i] = nil
	}
}

// wbuf buffers the writes of a lane's VPs to one shared array as
// run-length records, each VP's part after the previous holder's. Block
// writes land in the arena directly; contiguous scalar writes coalesce
// into arena-backed runs, so the commit path applies whole runs with copy
// instead of iterating 32-byte per-element records. A buffer lives as
// long as its doRun; its record chunks come from the doRun's pool for the
// array, its arena from the array's storage pool.
type wbuf[T Elem] struct {
	recs  chunked[writeRec[T]]
	arena []T
	pool  *chunkPool[writeRec[T]]
	vals  *wire.Pool[T]
}

func (b *wbuf[T]) endPart() (chunk, lo, hi int32) {
	c, lo, hi := b.recs.end()
	return int32(c), lo, hi
}

// room makes room in the arena for n more values, growing it through
// vals: the old arena goes back once copied. No commit aliases it yet
// (flushGlobal stages only after the phase's last write).
func (b *wbuf[T]) room(n int) {
	if len(b.arena)+n > cap(b.arena) {
		a := append(b.vals.Get(max(2*cap(b.arena), len(b.arena)+n)), b.arena...)
		b.vals.Put(b.arena)
		b.arena = a
	}
}

// push buffers one scalar write by the lane's holder, writer wid,
// extending its previous record when it is contiguous and of the same
// combine mode.
func (b *wbuf[T]) push(i int, v T, add bool, wid int64) {
	w := recWriter(wid, add)
	if k := len(b.recs.cur); k > 0 {
		last := &b.recs.cur[k-1]
		if last.writer == w && last.lo+int(last.n) == i && (last.off < 0 || int(last.off+last.n) == len(b.arena)) {
			b.room(2)
			if last.off < 0 {
				// Promote the inline scalar to an arena-backed run.
				last.off = int32(len(b.arena))
				b.arena = append(b.arena, last.val)
			}
			b.arena = append(b.arena, v)
			last.n++
			return
		}
	}
	b.recs.add(writeRec[T]{lo: i, n: 1, off: -1, val: v, writer: w}, b.pool)
}

// pushRun buffers one block write by the lane's holder, writer wid, as a
// single run.
func (b *wbuf[T]) pushRun(lo int, src []T, add bool, wid int64) {
	w := recWriter(wid, add)
	b.room(len(src))
	off := len(b.arena)
	b.arena = append(b.arena, src...)
	if k := len(b.recs.cur); k > 0 {
		last := &b.recs.cur[k-1]
		if last.writer == w && last.lo+int(last.n) == lo && last.off >= 0 && int(last.off+last.n) == off {
			last.n += int32(len(src))
			return
		}
	}
	b.recs.add(writeRec[T]{lo: lo, n: int32(len(src)), off: int32(off), writer: w}, b.pool)
}

// recsOf returns the records of touch t.
func (b *wbuf[T]) recsOf(t *laneTouch) []writeRec[T] { return part(b.recs.list, t.chunk, t.lo, t.hi) }

// apply applies the records of touch t, in order, to dst, node's storage
// of c, which holds element i at dst[i-lo0], and returns the applied
// payload bytes and the first strict error.
func (b *wbuf[T]) apply(c *arrayCore[T], dst []T, lo0 int, d *doRun, phaseSeq int64, t *laneTouch) (int64, error) {
	var bytes int64
	var firstErr error
	strict := d.rt.gs.opt.StrictWrites
	recs := b.recsOf(t)
	for ri := range recs {
		r := &recs[ri]
		var vals []T
		if r.off >= 0 {
			vals = b.arena[r.off : r.off+r.n]
		}
		sr := r.stage(r.lo, int(r.n), vals)
		if err := c.applyRun(dst, lo0, d.node, strict, phaseSeq, &sr); err != nil && firstErr == nil {
			firstErr = err
		}
		bytes += int64(r.n) * int64(c.es)
	}
	return bytes, firstErr
}

// reset empties the buffer, its record chunks going back to the pool.
func (b *wbuf[T]) reset() {
	b.recs.release(b.pool)
	b.arena = b.arena[:0]
}

func (b *wbuf[T]) release() {
	b.vals.Put(b.arena)
	b.arena = nil
}

// gBuf is a wbuf bound to a Global array.
type gBuf[T Elem] struct {
	wbuf[T]
	g *Global[T]
	// one is flushGlobal's view of an inline scalar as a run of values (a
	// local array would escape through the encoder, an allocation a flush).
	one [1]T
}

func (b *gBuf[T]) owner() any { return b.g }

// flushGlobal splits the records of touch tc at partition boundaries, so
// that each has a single destination node. A run for the flushing node's own
// partition is staged; one for another node is encoded, here and once,
// into the array's wire buffer for that node. Staged runs may alias the
// arena: the buffer is reset only after this node's commit has applied
// its stage (doRun.resetLanes).
func (b *gBuf[T]) flushGlobal(d *doRun, t *sendTally, phaseSeq int64, tc *laneTouch) error {
	node := d.node
	g := b.g
	es8 := int64(g.es + 8)
	wout, wruns := g.wout[node], g.wruns[node]
	recs := b.recsOf(tc)
	for ri := range recs {
		r := &recs[ri]
		lo, rest := r.lo, int(r.n)
		for rest > 0 {
			dst, phi := node, g.bnd[node+1]
			if lo < g.bnd[node] || lo >= phi {
				dst, phi = g.ownerSpan(lo)
			}
			n := min(rest, phi-lo)
			var vals []T // nil for an inline scalar
			if r.off >= 0 {
				o := int(r.off) + (lo - r.lo)
				vals = b.arena[o : o+n : o+n]
			}
			sr := r.stage(lo, n, vals)
			if dst == node {
				t.localElems += int64(n)
				t.localBytes += int64(n) * es8
				g.stage[node] = append(g.stage[node], sr)
			} else {
				t.elems[dst] += int64(n)
				t.bytes[dst] += int64(n) * es8
				if vals == nil {
					b.one[0] = r.val
					vals = b.one[:]
				}
				w := wout[dst]
				*w = mp.AppendElems(wire.AppendRunHeader(*w, wire.RunHeader{Lo: lo, N: n, Writer: sr.writer, Add: sr.add}), vals)
				wruns[dst]++
			}
			lo += n
			rest -= n
		}
	}
	return nil
}

func (b *gBuf[T]) flushNode(d *doRun, phaseSeq int64, t *laneTouch) (int64, error) {
	dst, lo0 := b.g.span(d.node)
	return b.apply(&b.g.arrayCore, dst, lo0, d, phaseSeq, t)
}

// nBuf is a wbuf bound to a Node array. Node-array records are node-local
// by definition, so both commit paths apply them directly.
type nBuf[T Elem] struct {
	wbuf[T]
	a *Node[T]
}

func (b *nBuf[T]) owner() any { return b.a }

func (b *nBuf[T]) flushGlobal(d *doRun, ts *sendTally, phaseSeq int64, t *laneTouch) error {
	bytes, err := b.flushNode(d, phaseSeq, t)
	ts.localElems += bytes / int64(b.a.es)
	ts.localBytes += bytes
	return err
}

func (b *nBuf[T]) flushNode(d *doRun, phaseSeq int64, t *laneTouch) (int64, error) {
	return b.apply(&b.a.arrayCore, b.a.base[d.node], 0, d, phaseSeq, t)
}

// bufFor finds the write buffer of the calling VP's lane for g, binding
// one to the lane on the VP's first write to g in this phase.
func bufFor[T Elem](vp *VP, g *Global[T]) *gBuf[T] {
	l := vp.lane
	for _, t := range l.touch.cur {
		if b := l.bufs[t.buf]; b.owner() == g {
			return b.(*gBuf[T])
		}
	}
	if b := l.touchBuf(g, &vp.d.touchPool); b != nil {
		return b.(*gBuf[T])
	}
	g.checkLive("Global", "Write") // no lane keeps a buffer past its run
	b := &gBuf[T]{wbuf: wbuf[T]{pool: recPoolFor[T](vp.d, g), vals: g.store}, g: g}
	l.addBuf(b, &vp.d.touchPool)
	return b
}

// nodeBufFor is bufFor for a node-shared array.
func nodeBufFor[T Elem](vp *VP, a *Node[T]) *nBuf[T] {
	l := vp.lane
	for _, t := range l.touch.cur {
		if b := l.bufs[t.buf]; b.owner() == a {
			return b.(*nBuf[T])
		}
	}
	if b := l.touchBuf(a, &vp.d.touchPool); b != nil {
		return b.(*nBuf[T])
	}
	a.checkLive("Node", "Write")
	b := &nBuf[T]{wbuf: wbuf[T]{pool: recPoolFor[T](vp.d, a), vals: a.store}, a: a}
	l.addBuf(b, &vp.d.touchPool)
	return b
}

// recPoolFor returns d's pool of record chunks for the array owner,
// making it on the first binding of a buffer to the array.
func recPoolFor[T Elem](d *doRun, owner any) *chunkPool[writeRec[T]] {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.recPools[owner]; ok {
		return p.(*chunkPool[writeRec[T]])
	}
	if d.recPools == nil {
		d.recPools = make(map[any]interface{ release() })
	}
	p := &chunkPool[writeRec[T]]{src: poolFor[wire.Pool[writeRec[T]]]()}
	d.recPools[owner] = p
	return p
}

// touchBuf notes the holder's first write in this phase to the array
// owner, which an earlier holder of the lane wrote: the holder's records
// in the lane's buffer for it start here. It returns nil when the lane
// has no buffer for the array.
func (l *lane) touchBuf(owner any, pool *chunkPool[laneTouch]) vpFlusher {
	for i, b := range l.bufs {
		if b.owner() == owner {
			l.touch.add(laneTouch{buf: int32(i)}, pool)
			return b
		}
	}
	return nil
}

// addBuf binds the empty buffer b to the lane for the holder's first
// write to its array.
func (l *lane) addBuf(b vpFlusher, pool *chunkPool[laneTouch]) {
	l.touch.add(laneTouch{buf: int32(len(l.bufs))}, pool)
	l.bufs = append(l.bufs, b)
}

// release hands the phase scratch d holds to the process-wide pools once
// its last commit of the run has succeeded: its VP slab and segment
// table, the lanes' write buffers' arenas, every chunk in d's chunk pools
// (where each commit leaves the lanes' chunks, and releaseWarm its
// plans') and the raw commit streams. A non-persistent doRun releases in
// finish, a warm one when its run ends (releaseWarm) or its session
// stashes it (stash, which keeps the plans); its next run draws a slab
// and its next phase a table.
func (d *doRun) release() {
	d.putVPs()
	putSegs(d.segs)
	d.segs = nil
	for _, l := range d.lanes {
		for _, b := range l.bufs {
			b.release()
		}
		l.bufs = nil
	}
	for _, p := range d.recPools {
		p.release()
	}
	d.recPools = nil
	d.keyPool.release()
	d.runPool.release()
	d.touchPool.release()
	putWire(d.coutRaw)
	d.coutRaw = nil // the next commit draws afresh
	clear(d.cout)   // it aliased the streams
}

// makespan maps the work the VPs accumulated up to ordinal p's parity
// slot (what each held when it passed the ordinal: pre-phase plus in-phase
// charge, or what it had left when it returned) onto the node's cores and
// returns the modeled elapsed time, taking the snapshots as it reads
// them. extra is added to every VP's cost (per-VP dispatch overhead). The
// runtime's dynamic scheduler achieves the greedy bound max(total/cores,
// max VP); StaticSchedule models the naive compiler loop transform, which
// assigns contiguous VP blocks to cores.
func (d *doRun) makespan(p int32, extra vtime.Duration) vtime.Duration {
	cores := d.rt.gs.cores
	if d.rt.gs.opt.StaticSchedule {
		var worst vtime.Duration
		for c := 0; c < cores; c++ {
			lo, hi := ChunkRange(d.k, cores, c)
			var sum vtime.Duration
			for i := lo; i < hi; i++ {
				sum += d.vps[i].snap[p] + extra
				d.vps[i].snap[p] = 0
			}
			if sum > worst {
				worst = sum
			}
		}
		return worst
	}
	var total, maxVP vtime.Duration
	for i := range d.vps {
		c := d.vps[i].snap[p] + extra
		d.vps[i].snap[p] = 0
		total += c
		if c > maxVP {
			maxVP = c
		}
	}
	span := total / vtime.Duration(cores)
	if maxVP > span {
		span = maxVP
	}
	return span
}

// bundleCount models how many messages carry `elems` fine-grained items
// totaling `bytes` of payload: with bundling, items pack into
// BundleBytes-sized packages; without it, each item is its own message.
func (d *doRun) bundleCount(elems, bytes int64) int64 {
	if elems <= 0 {
		return 0
	}
	if d.rt.gs.opt.NoBundling {
		return elems
	}
	bb := int64(d.rt.gs.opt.BundleBytes)
	n := (bytes + bb - 1) / bb
	if n < 1 {
		n = 1
	}
	return n
}

// mergeReadSets folds every VP's phase-local remote-read tracking into
// per-owner element and byte counts. Direct counters (the NoReadCache
// path) are per-lane integer sums; the cached path computes the union of
// the VPs' read sets, their parts of the lanes, without any cross-VP
// lock. The parts are gathered into one scratch of keys and one of runs,
// drawn from the doRun's chunk pools for this merge and handed back
// after it, and each is sorted once: a key or a run's start is one word
// with the array in its high bits, so each array's items then lie
// together, in index order. Per array, the runs are swept into a
// disjoint cover, the keys are deduplicated against each other and
// against the cover, and the result is counted per owning node. All
// counts are integers, so the merge order cannot perturb them.
//
// On a warm doRun the merge is plan-cached (see plan.go): a pass whose
// inputs exactly match the recorded plan replays the recorded per-owner
// deltas instead of sorting and sweeping; any other pass records a fresh
// plan while merging cold, accumulating the sweep into the plan's delta
// slices and then adding them into the commit's counters (integer sums,
// so recording cannot perturb the result).
func (d *doRun) mergeReadSets(rrElems, rrBytes []int64) {
	gs := d.rt.gs
	na := len(gs.arrays)
	// Direct counters are already per-owner sums; fold and clear them
	// first — they bypass planning entirely.
	for _, l := range d.lanes {
		if l.rrElems != nil {
			for n := range rrElems {
				rrElems[n] += l.rrElems[n]
				rrBytes[n] += l.rrBytes[n]
				l.rrElems[n], l.rrBytes[n] = 0, 0
			}
		}
	}
	p := d.planFor()
	if p != nil && p.valid {
		if d.planMatches(p, na) {
			d.replay(p, rrElems, rrBytes)
			return
		}
		p.valid = false
		d.rt.stats().PlanCache.Invalidations++
	}
	// Count what the segments hold (a lane's chunks may hold keys no
	// segment covers: a log that moved to a larger chunk left its old
	// copy behind).
	nkeys, nruns := 0, 0
	for i := range d.segs {
		nkeys += int(d.segs[i].keyHi - d.segs[i].keyLo)
		nruns += int(d.segs[i].runHi - d.segs[i].runLo)
	}
	rec := p != nil
	if rec {
		d.rt.stats().PlanCache.Misses++
		p.beginRecord(d.openKind, na, gs.nodes, gs.dist != nil)
		p.entries = int64(nruns + nkeys)
	}
	if nruns+nkeys == 0 {
		if rec {
			p.valid = true // empty shape: replays as a no-op
		}
		return
	}
	keyBuf, runBuf := d.keyPool.take(nkeys), d.runPool.take(nruns)
	keys, runs := keyBuf[:0], runBuf[:0]
	for i := range d.segs {
		keys = append(keys, d.keysOf(&d.segs[i])...)
		runs = append(runs, d.runsOf(&d.segs[i])...)
	}
	if rec {
		// The plan takes the lanes' keys and runs, and the segments into
		// them, that it will validate against, and hands back what it
		// held (see phasePlan.take).
		p.take(d)
	}
	slices.Sort(keys)
	slices.SortFunc(runs, func(a, b laneRun) int { return cmp.Compare(a.lo, b.lo) })
	// Merge target: the commit's counters directly, or the plan's delta
	// slices on a recording pass (added into the counters below).
	tElems, tBytes := rrElems, rrBytes
	if rec {
		tElems, tBytes = p.rrElems, p.rrBytes
	}
	for len(runs) > 0 || len(keys) > 0 {
		// The next array's runs and keys.
		id := maxKeyArrays
		if len(runs) > 0 {
			id = runs[0].lo.array()
		}
		if len(keys) > 0 {
			id = min(id, keys[0].array())
		}
		nr, nk := 0, 0
		for nr < len(runs) && runs[nr].lo.array() == id {
			nr++
		}
		for nk < len(keys) && keys[nk].array() == id {
			nk++
		}
		rs, ks := runs[:nr], keys[:nk]
		runs, keys = runs[nr:], keys[nk:]
		arr := gs.arrays[id]
		es := int64(arr.elemBytes())
		// Sweep the runs into a disjoint cover, in place.
		if len(rs) > 1 {
			m := 0
			for i := 1; i < len(rs); i++ {
				if rs[i].lo.idx() <= rs[m].hi {
					rs[m].hi = max(rs[m].hi, rs[i].hi)
				} else {
					m++
					rs[m] = rs[i]
				}
			}
			rs = rs[:m+1]
		}
		for _, r := range rs {
			for s := r.lo.idx(); s < r.hi; {
				owner, end := arr.ownerSpan(s)
				e := min(r.hi, end)
				tElems[owner] += int64(e - s)
				tBytes[owner] += int64(e-s) * es
				if rec && p.fcov != nil && owner != d.node {
					p.noteFetch(owner, id, s, e)
				}
				s = e
			}
		}
		ri, prev := 0, -1
		for _, k := range ks {
			ix := k.idx()
			if ix == prev {
				continue
			}
			prev = ix
			for ri < len(rs) && rs[ri].hi <= ix {
				ri++
			}
			if ri < len(rs) && rs[ri].lo.idx() <= ix {
				continue // already covered by a block run
			}
			owner, _ := arr.ownerSpan(ix)
			tElems[owner]++
			tBytes[owner] += es
			if rec && p.fcov != nil && owner != d.node {
				p.noteFetch(owner, id, ix, ix+1)
			}
		}
	}
	d.keyPool.put(keyBuf)
	d.runPool.put(runBuf)
	if rec {
		for n := range rrElems {
			rrElems[n] += p.rrElems[n]
			rrBytes[n] += p.rrBytes[n]
		}
		p.valid = true
	}
}

// resetCommitScratch zeroes the doRun's reusable per-commit tallies,
// reallocating only when the node count outgrows their capacity (it
// never does after the first commit).
func (d *doRun) resetCommitScratch(nodes int) {
	d.ctally.elems = resetInt64(d.ctally.elems, nodes)
	d.ctally.bytes = resetInt64(d.ctally.bytes, nodes)
	d.ctally.localElems, d.ctally.localBytes = 0, 0
	d.crrElems = resetInt64(d.crrElems, nodes)
	d.crrBytes = resetInt64(d.crrBytes, nodes)
	d.cinElems = resetInt64(d.cinElems, nodes)
	d.cinBytes = resetInt64(d.cinBytes, nodes)
}

// drainGlobal drains every VP's records in rank order into the arrays'
// stages and wire buffers (fixing the merge order) and folds the lanes'
// access counters into the node's stats; traffic accumulates into
// d.ctally.
// It is a method, not a closure, so the non-strict commit path carries
// no captured variables and stays allocation-free.
func (d *doRun) drainGlobal(seq int64) error {
	d.foldAccesses()
	var firstErr error
	for i := range d.segs {
		s := &d.segs[i]
		if s.wLo == s.wHi {
			continue
		}
		bufs, ts := d.lanes[s.lane].bufs, d.touchesOf(s)
		for i := range ts {
			if err := bufs[ts[i].buf].flushGlobal(d, &d.ctally, seq, &ts[i]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// foldAccesses adds the lanes' access counters into the node's stats and
// clears them.
func (d *doRun) foldAccesses() {
	st := d.rt.stats()
	for _, l := range d.lanes {
		st.SharedReads += l.reads
		st.SharedWrites += l.writes
		l.reads, l.writes = 0, 0
	}
}

// drainGlobalSerial is drainGlobal under the node's serial section:
// node-array buffers apply immediately and feed the cross-node strict
// trackers, so strict mode serializes the drain (see commitNode).
func (d *doRun) drainGlobalSerial(seq int64) error {
	var err error
	d.rt.proc.Serial(func() { err = d.drainGlobal(seq) })
	return err
}

// commit finalizes one phase: merges VP accounting (the VPs' charges from
// snapshot slot p), models the bundled communication, exchanges and
// applies staged writes (global phases), and empties the lanes.
func (d *doRun) commit(kind phaseKind, p int32) error {
	var err error
	if kind == phaseGlobal {
		err = d.commitGlobal(p)
	} else {
		err = d.commitNode(p)
	}
	d.resetLanes()
	return err
}

// drainNode drains and applies every VP's records in rank order
// (node-phase commit: records apply immediately), returning the applied
// payload bytes and the first strict error.
func (d *doRun) drainNode(seq int64) (int64, error) {
	d.foldAccesses()
	var applyBytes int64
	var firstErr error
	for i := range d.segs {
		s := &d.segs[i]
		if s.wLo == s.wHi {
			continue
		}
		bufs, ts := d.lanes[s.lane].bufs, d.touchesOf(s)
		for i := range ts {
			bytes, err := bufs[ts[i].buf].flushNode(d, seq, &ts[i])
			if err != nil && firstErr == nil {
				firstErr = err
			}
			applyBytes += bytes
		}
	}
	return applyBytes, firstErr
}

// drainNodeSerial is drainNode under the node's serial section.
func (d *doRun) drainNodeSerial(seq int64) (int64, error) {
	var bytes int64
	var err error
	d.rt.proc.Serial(func() { bytes, err = d.drainNode(seq) })
	return bytes, err
}

func (d *doRun) commitNode(p int32) error {
	rt := d.rt
	gs := rt.gs
	mach := gs.mach
	st := rt.stats()
	st.NodePhases++
	gs.phaseSeqs[d.node]++
	seq := gs.phaseSeqs[d.node]

	if rt.proc != nil {
		span := d.makespan(p, vtime.Duration(mach.VPStartCost))
		st.PhaseComputeTime += vtime.Duration(mach.PhaseFixedCost) + span
		rt.proc.AdvanceTo(d.phaseStart.
			Add(vtime.Duration(mach.PhaseFixedCost)).
			Add(span))
	}

	var firstErr, drainErr error
	var applyBytes int64
	if d.strict {
		firstErr = d.strictCommit(seq)
	}
	if d.strict && rt.proc != nil {
		// Strict-mode applies touch cross-node conflict trackers and the
		// shared conflict log; the turn serializes them in sequential
		// order so attribution order is mode-independent. Non-strict
		// node-phase applies touch only node-owned state and stay
		// concurrent under the parallel scheduler. (A distributed process
		// owns its whole globalState, so no turn exists or is needed.)
		applyBytes, drainErr = d.drainNodeSerial(seq)
	} else {
		applyBytes, drainErr = d.drainNode(seq)
	}
	if d.strict {
		d.snapLocal()
	}
	if rt.proc != nil {
		rt.proc.ChargeMem(applyBytes)
		st.PhaseApplyTime += mach.MemTime(applyBytes)
	}
	if firstErr == nil {
		firstErr = drainErr
	}
	if firstErr != nil {
		d.noteStrict(firstErr)
	}
	return nil // strict errors surface at the end of the run
}

// commitGlobal ends a global phase, on either backend. It drains the
// VPs' write buffers in rank order (runs for this node's own partition
// stage, the rest are encoded into wire commit streams), models the
// bundled traffic, exchanges the streams, and applies what every node
// wrote to this node's partition, array by array and sources ascending.
// The backends differ only in the exchange (the simulator's barrier over
// a shared stream table, the mesh's CommitExchange under the memory
// mutex) and in that only the simulator charges virtual time; the
// counters are the same on both.
func (d *doRun) commitGlobal(p int32) error {
	rt := d.rt
	gs := rt.gs
	mach := gs.mach
	opt := &gs.opt
	st := rt.stats()
	st.GlobalPhases++
	gs.phaseSeqs[d.node]++
	seq := gs.phaseSeqs[d.node]
	nodes := gs.nodes
	sim := rt.proc != nil

	// 1. Drain the VPs' records in rank order (fixes merge order), then
	// merge the per-VP read sets into the node-level traffic tallies.
	// All per-commit tallies live in reusable doRun scratch.
	d.resetCommitScratch(nodes)
	var firstErr, drainErr error
	if d.strict {
		firstErr = d.strictCommit(seq)
	}
	if d.strict && sim {
		// Node-array buffers apply here and feed the cross-node strict
		// trackers; see commitNode. Global-array buffers only write
		// this node's stage and wire row, which is safe either way.
		drainErr = d.drainGlobalSerial(seq)
	} else {
		drainErr = d.drainGlobal(seq)
	}
	if firstErr == nil {
		firstErr = drainErr
	}
	d.mergeReadSets(d.crrElems, d.crrBytes)
	tally := &d.ctally
	rrElems, rrBytes := d.crrElems, d.crrBytes

	// 2. Model this node's outgoing bundled traffic: read request/reply
	// round trips plus write pushes.
	var cpu vtime.Duration
	var wireBytes, bundles int64
	var haveReads, haveWrites bool
	for n := 0; n < nodes; n++ {
		if n == d.node {
			continue
		}
		if rrElems[n] > 0 {
			haveReads = true
			req := 8 * rrElems[n] // index list out
			rep := rrBytes[n]     // values back
			nb := d.bundleCount(rrElems[n], req+rep)
			bundles += nb
			cpu += vtime.Duration(float64(nb) * (mach.SendOverhead + mach.RecvOverhead + 2*mach.BundleOverhead))
			wireBytes += req + rep + 2*nb*int64(mach.HeaderBytes)
			st.RemoteReadElems += rrElems[n]
		}
		if tally.elems[n] > 0 {
			haveWrites = true
			nb := d.bundleCount(tally.elems[n], tally.bytes[n])
			bundles += nb
			cpu += vtime.Duration(float64(nb) * (mach.SendOverhead + mach.BundleOverhead))
			wireBytes += tally.bytes[n] + nb*int64(mach.HeaderBytes)
			st.RemoteWriteElems += tally.elems[n]
		}
	}
	st.BundlesOut += bundles
	st.BytesOut += wireBytes
	if sim {
		d.chargeOutgoing(p, cpu, wireBytes, bundles, haveReads, haveWrites)
	}

	// 3. Exchange the streams: once this returns, every node has drained,
	// and this node may mutate its partition.
	incoming, err := d.exchange(seq)
	if err != nil {
		return err
	}

	// 4. Apply incoming runs, paying receive-side costs.
	var strictErr error
	if d.strict && sim {
		// Strict applies serialize (conflict trackers and the conflict
		// log are cross-node); each node still applies only runs for its
		// own partition. Without strict mode the applies run concurrently
		// under the parallel scheduler — every node touches only its own
		// partition, stage and scratch, and reads streams nobody writes
		// until the closing barrier.
		strictErr, err = d.applyExchangedSerial(seq, incoming)
	} else {
		strictErr, err = d.applyExchanged(seq, incoming)
	}
	if err != nil {
		return err
	}
	if strictErr != nil && firstErr == nil {
		firstErr = strictErr
	}
	if d.strict {
		d.snapLocal()
	}
	inElems, inBytes := d.cinElems, d.cinBytes
	var inCPU vtime.Duration
	var inBundles, inWire, memBytes int64
	for n := 0; n < nodes; n++ {
		memBytes += inBytes[n]
		if n == d.node || inElems[n] == 0 {
			continue
		}
		nb := d.bundleCount(inElems[n], inBytes[n])
		inBundles += nb
		inWire += inBytes[n]
		inCPU += vtime.Duration(float64(nb) * (mach.RecvOverhead + mach.BundleOverhead))
	}
	st.BundlesIn += inBundles
	st.BytesIn += inWire

	if !sim {
		gs.dist.ReleaseCommit(incoming)
		// The apply mutated our partitions: every cached remote range
		// held anywhere locally is stale. (The caches also reset at phase
		// open, which additionally covers node-level Local() mutation.)
		for _, arr := range gs.arrays {
			arr.resetDistCache()
		}
		// No barrier: peers may still wait in this exchange, unapplied.
		// The next phase's reads follow its opening doK exchange and the
		// run's exit barrier follows every apply; a node-level read in
		// between is held by the owner until it releases this exchange
		// (DistEngine.SetReadServer).
		if firstErr != nil {
			d.noteStrict(firstErr)
		}
		if opt.OnPhase != nil {
			opt.OnPhase(seq)
		}
		return nil
	}
	rt.proc.Charge(inCPU + mach.MemTime(memBytes))
	st.PhaseApplyTime += inCPU + mach.MemTime(memBytes)

	// 5. Everyone applied: the next phase (or node-level code) may read
	// any partition, and every node may reuse its streams.
	rt.proc.Barrier()

	if firstErr != nil {
		// After the release the process may no longer hold the turn;
		// "first violation wins" must follow sequential order.
		d.noteStrict(firstErr)
	}
	return nil
}

// chargeOutgoing advances the simulated node's clock over the phase's
// computation (the VPs' charges from snapshot slot p mapped onto the
// cores) and its outgoing traffic, which overlaps the computation unless
// NoOverlap is set.
func (d *doRun) chargeOutgoing(p int32, cpu vtime.Duration, wireBytes, bundles int64, haveReads, haveWrites bool) {
	rt := d.rt
	mach := rt.gs.mach
	st := rt.stats()
	span := d.makespan(p, vtime.Duration(mach.VPStartCost))
	computeEnd := d.phaseStart.
		Add(vtime.Duration(mach.PhaseFixedCost)).
		Add(span)
	commStart := d.phaseStart
	if rt.gs.opt.NoOverlap {
		commStart = computeEnd
	}
	end := computeEnd
	if bundles > 0 {
		cpuDone := commStart.Add(cpu)
		nicDone := rt.proc.NICAcquire(commStart, vtime.Duration(float64(wireBytes)/mach.NetBandwidth))
		commEnd := cpuDone.Max(nicDone)
		switch {
		case haveReads:
			commEnd = commEnd.Add(vtime.Duration(2 * mach.NetLatency))
		case haveWrites:
			commEnd = commEnd.Add(vtime.Duration(mach.NetLatency))
		}
		rt.proc.CountTraffic(bundles, wireBytes, false)
		end = end.Max(commEnd)
	}
	st.PhaseComputeTime += computeEnd.Sub(d.phaseStart)
	if end.After(computeEnd) {
		st.PhaseCommTime += end.Sub(computeEnd) // comm not hidden by overlap
	}
	rt.proc.AdvanceTo(end)
}

// exchange assembles this node's commit stream for every other node (each
// array's block of runs, in array order) and trades them for the streams
// every node sent this one, returned indexed by source. On a mesh the
// streams go through the engine's CommitExchange, transcoded to each
// link's codec, and this node takes the memory mutex before it returns:
// every peer has finished its phase body, so no remote read of our
// partitions is outstanding. Under the simulator they are handed over by
// reference through the shared stream table, at the exchange barrier; no
// node overwrites its streams before the closing barrier.
func (d *doRun) exchange(seq int64) ([][]byte, error) {
	gs := d.rt.gs
	nodes := gs.nodes
	if cap(d.cout) < nodes {
		d.cout = make([][]byte, nodes)
		d.cin = make([][]byte, nodes)
		d.ccurs = make([]commitCursor, nodes)
		if gs.dist != nil {
			d.coutEnc = make([][]byte, nodes)
			d.cdec = make([][]byte, nodes)
		}
	}
	if len(d.coutRaw) < nodes {
		d.coutRaw = takeWire(nodes, d.node)
	}
	outgoing := d.cout[:nodes]
	for dst := range outgoing {
		// Only a node the drain counted writes for (never this one) has
		// runs in some array's wire buffer.
		outgoing[dst] = nil
		if d.ctally.elems[dst] == 0 {
			continue
		}
		w := d.coutRaw[dst]
		buf := (*w)[:0]
		for _, arr := range gs.arrays {
			buf = arr.encodeStagedWire(d.node, dst, buf)
		}
		*w = buf
		outgoing[dst] = buf
		if gs.dist == nil {
			continue
		}
		gs.wireCommitRaw += int64(len(buf))
		if len(buf) > 0 && gs.dist.CommitCodec(dst) == wire.CodecDelta {
			enc, err := wire.AppendCommitDelta(d.coutEnc[dst][:0], buf, gs.arrayElemBytes)
			if err != nil {
				return nil, fmt.Errorf("core: node %d: delta-encoding commit for node %d: %w", d.node, dst, err)
			}
			d.coutEnc[dst] = enc
			outgoing[dst] = enc
		}
		gs.wireCommitEnc += int64(len(outgoing[dst]))
	}
	if gs.dist != nil {
		incoming, err := gs.dist.CommitExchange(seq, outgoing)
		if err != nil {
			return nil, err
		}
		gs.memMu.Lock()
		gs.memHeld = true
		return incoming, nil
	}
	gs.streams[d.node] = outgoing
	d.rt.proc.Barrier()
	incoming := d.cin[:nodes]
	for src := range incoming {
		incoming[src] = gs.streams[src][d.node]
	}
	return incoming, nil
}

// applyExchanged applies every array's runs for this node's partition:
// array by array, and within an array source by source, its own staged
// runs in its own turn and every peer's from the peer's stream (a delta
// stream decoded into doRun scratch first). Per-source traffic
// accumulates into d.cinElems and d.cinBytes. strictErr is the first
// strict-mode conflict; err is a corrupt stream (fatal).
func (d *doRun) applyExchanged(seq int64, incoming [][]byte) (strictErr, err error) {
	gs := d.rt.gs
	nodes := gs.nodes
	strict := gs.opt.StrictWrites
	curs := d.ccurs[:nodes]
	for src := range curs {
		c := &curs[src]
		c.live, c.valid = false, false
		stream := incoming[src]
		if src == d.node || len(stream) == 0 {
			continue
		}
		if gs.dist != nil && gs.dist.PeerCommitCodec(src) == wire.CodecDelta {
			if stream, err = wire.DecodeCommitDeltaInto(d.cdec[src], stream, gs.arrayElemBytes); err != nil {
				return strictErr, fmt.Errorf("core: node %d: delta from node %d: %w", d.node, src, err)
			}
			d.cdec[src] = stream
		}
		c.rd.Reset(stream)
		c.live = true
		if err := c.advance(); err != nil {
			return strictErr, fmt.Errorf("core: node %d: delta from node %d: %w", d.node, src, err)
		}
	}
	for id, arr := range gs.arrays {
		for src := range curs {
			var elems int
			var sErr error
			if src == d.node {
				elems, sErr = arr.applyStaged(d.node, strict, seq)
			} else {
				c := &curs[src]
				if !c.live || !c.valid || c.array != id {
					continue
				}
				elems, sErr, err = arr.applyWireRuns(d.node, strict, seq, &c.rd, c.nRuns)
				if err == nil {
					err = c.advance()
				}
				if err != nil {
					return strictErr, fmt.Errorf("core: node %d: delta from node %d: %w", d.node, src, err)
				}
			}
			if sErr != nil && strictErr == nil {
				strictErr = sErr
			}
			d.cinElems[src] += int64(elems)
			d.cinBytes[src] += int64(elems) * int64(arr.elemBytes()+8)
		}
	}
	for src := range curs {
		c := &curs[src]
		if c.live && c.valid {
			return strictErr, fmt.Errorf("core: node %d: delta from node %d addresses unknown array id %d", d.node, src, c.array)
		}
		c.drop()
	}
	return strictErr, nil
}

// applyExchangedSerial is applyExchanged under the node's serial section,
// a method so that the non-strict path captures nothing.
func (d *doRun) applyExchangedSerial(seq int64, incoming [][]byte) (strictErr, err error) {
	d.rt.proc.Serial(func() { strictErr, err = d.applyExchanged(seq, incoming) })
	return strictErr, err
}

// commitCursor walks one peer's commit stream block by block during the
// array-major apply. Cursors are doRun-scratch values reused across
// commits; live marks sources that sent a stream this commit.
type commitCursor struct {
	rd    wire.CommitReader
	array int
	nRuns int
	valid bool
	live  bool
}

// drop lets go of the cursor's stream, which is about to go back to its
// sender (a doRun cached by a warm session would otherwise pin its last
// commit's streams for the fleet's lifetime).
func (c *commitCursor) drop() {
	c.rd.Reset(nil)
	c.live, c.valid = false, false
}

func (c *commitCursor) advance() error {
	if !c.rd.More() {
		c.valid = false
		return nil
	}
	a, n, err := c.rd.Block()
	if err != nil {
		return err
	}
	c.array, c.nRuns, c.valid = a, n, true
	return nil
}
