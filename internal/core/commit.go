package core

import (
	"reflect"
	"slices"
	"sort"
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

// vpFlusher is the per-(VP, array) write buffer interface: the coordinator
// drains buffers in VP rank order at each commit, which fixes the merge
// order and makes commits deterministic.
type vpFlusher interface {
	// flushGlobal stages records for the global-phase exchange (node-
	// array records apply immediately; they are node-local by nature).
	flushGlobal(d *doRun, t *sendTally, phaseSeq int64) error
	// flushNode applies records immediately (node-phase commit) and
	// returns the applied payload bytes.
	flushNode(d *doRun, phaseSeq int64) (bytes int64, err error)
	// owner identifies the array this buffer is bound to.
	owner() any
	// release empties the buffer, unbinds it from its array and returns
	// it to its type's pool (see stagingPool for when).
	release()
}

// Write staging outlives the arrays it serves. A new job allocates new
// arrays, so buffers kept per array would regrow from empty in every
// program run; instead every *gBuf[T] and *nBuf[T] comes from one
// process-wide pool per buffer type, and every per-peer wire buffer of a
// mesh rank (an array's wout, a doRun's raw commit streams) from
// wireStaging. A doRun's buffers go back when its Do finishes (a
// non-persistent doRun), when a warm session stashes it, and when its run
// ends (Run; RunDist without a session); an array's when its RunDist
// succeeds. A failed run drops what it holds. They are sync.Pools, so a
// collection empties them and an idle process keeps nothing; a released
// buffer is empty and bound to no array, so a pool never pins a finished
// run.
var stagingPools sync.Map // reflect.Type of the buffer -> *sync.Pool

// stagingPool returns the process-wide pool of buffers of type B. It is
// keyed by reflect.Type because Elem admits ~ types, which no type switch
// can enumerate; arrays look their pool up once, at allocation.
func stagingPool[B any]() *sync.Pool {
	key := reflect.TypeFor[B]()
	if p, ok := stagingPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := stagingPools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// wireStaging is the pool of mesh ranks' per-peer wire buffers
// (Global.wout and a doRun's raw commit streams), boxed so that a Put
// does not allocate.
var wireStaging = sync.Pool{New: func() any { return new([]byte) }}

// takeWire draws an empty wire buffer from wireStaging for every one of
// n ranks but self.
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

// gBuf buffers one VP's writes to one Global array as run-length records.
// Block writes land in the arena directly; contiguous scalar writes
// coalesce into arena-backed runs, so the commit path applies whole runs
// with copy instead of iterating 32-byte per-element records.
type gBuf[T Elem] struct {
	g     *Global[T]
	wid   int64 // owning VP's writer id, set when the buffer is acquired
	recs  []writeRec[T]
	arena []T
	// one is flushGlobal's view of an inline scalar as a run of values (a
	// local array would escape through the encoder, an allocation a flush).
	one [1]T
}

func (b *gBuf[T]) owner() any { return b.g }

func (b *gBuf[T]) release() {
	pool := b.g.bufs
	b.g = nil
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
	pool.Put(b)
}

// push buffers one scalar write, extending the previous record when it is
// contiguous with the same combine mode (the writer is the same by
// construction — the buffer belongs to one VP).
func (b *gBuf[T]) push(i int, v T, add bool) {
	if k := len(b.recs); k > 0 {
		last := &b.recs[k-1]
		if last.add == add && last.lo+last.n == i {
			if last.off >= 0 {
				if last.off+last.n == len(b.arena) {
					b.arena = append(b.arena, v)
					last.n++
					return
				}
			} else {
				// Promote the inline scalar to an arena-backed run.
				off := len(b.arena)
				b.arena = append(b.arena, last.val, v)
				last.off = off
				last.n = 2
				return
			}
		}
	}
	b.recs = append(b.recs, writeRec[T]{lo: i, n: 1, off: -1, val: v, add: add, writer: b.wid})
}

// pushRun buffers one block write as a single run.
func (b *gBuf[T]) pushRun(lo int, src []T, add bool) {
	off := len(b.arena)
	b.arena = append(b.arena, src...)
	if k := len(b.recs); k > 0 {
		last := &b.recs[k-1]
		if last.add == add && last.lo+last.n == lo && last.off >= 0 && last.off+last.n == off {
			last.n += len(src)
			return
		}
	}
	b.recs = append(b.recs, writeRec[T]{lo: lo, n: len(src), off: off, add: add, writer: b.wid})
}

// flushGlobal stages this buffer's runs, splitting each at partition
// boundaries so every staged run has a single destination node. On a mesh
// rank a run for another node is not staged but encoded, here and once,
// into the array's wire buffer for that node.
func (b *gBuf[T]) flushGlobal(d *doRun, t *sendTally, phaseSeq int64) error {
	node := d.node
	g := b.g
	es8 := int64(g.es + 8)
	for ri := range b.recs {
		r := &b.recs[ri]
		lo, rest := r.lo, r.n
		for rest > 0 {
			dst, phi := node, g.bnd[node+1]
			if lo < g.bnd[node] || lo >= phi {
				dst, phi = g.ownerSpan(lo)
			}
			n := rest
			if lo+n > phi {
				n = phi - lo
			}
			var vals []T // nil for an inline scalar
			if r.off >= 0 {
				o := r.off + (lo - r.lo)
				vals = b.arena[o : o+n : o+n]
			}
			if dst != node {
				t.elems[dst] += int64(n)
				t.bytes[dst] += int64(n) * es8
			} else {
				t.localElems += int64(n)
				t.localBytes += int64(n) * es8
			}
			if dst != node && g.wout != nil {
				if vals == nil {
					b.one[0] = r.val
					vals = b.one[:]
				}
				w := g.wout[dst]
				*w = mp.AppendElems(wire.AppendRunHeader(*w, wire.RunHeader{Lo: lo, N: n, Writer: r.writer, Add: r.add}), vals)
				g.wruns[dst]++
			} else {
				g.stage[dst][node] = append(g.stage[dst][node], stageRec[T]{lo: lo, n: n, vals: vals, val: r.val, add: r.add, writer: r.writer})
			}
			lo += n
			rest -= n
		}
	}
	b.recs = b.recs[:0]
	// The arena may still be aliased by staged runs; truncation is safe
	// because new writes (which would overwrite it) can only be buffered
	// after the commit's final barrier, by which time every node has
	// applied its incoming stage.
	b.arena = b.arena[:0]
	return nil
}

func (b *gBuf[T]) flushNode(d *doRun, phaseSeq int64) (int64, error) {
	var bytes int64
	var firstErr error
	strict := d.rt.gs.opt.StrictWrites
	for ri := range b.recs {
		r := &b.recs[ri]
		sr := stageRec[T]{lo: r.lo, n: r.n, add: r.add, writer: r.writer}
		if r.off >= 0 {
			sr.vals = b.arena[r.off : r.off+r.n]
		} else {
			sr.val = r.val
		}
		if err := b.g.applyRun(d.node, strict, phaseSeq, &sr); err != nil && firstErr == nil {
			firstErr = err
		}
		bytes += int64(r.n) * int64(b.g.es)
	}
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
	return bytes, firstErr
}

// nBuf buffers one VP's writes to one Node array. Node-array records are
// node-local by definition, so both commit paths apply them directly.
type nBuf[T Elem] struct {
	a     *Node[T]
	wid   int64 // owning VP's writer id, set when the buffer is acquired
	recs  []writeRec[T]
	arena []T
}

func (b *nBuf[T]) owner() any { return b.a }

func (b *nBuf[T]) release() {
	pool := b.a.bufs
	b.a = nil
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
	pool.Put(b)
}

func (b *nBuf[T]) push(i int, v T, add bool) {
	if k := len(b.recs); k > 0 {
		last := &b.recs[k-1]
		if last.add == add && last.lo+last.n == i {
			if last.off >= 0 {
				if last.off+last.n == len(b.arena) {
					b.arena = append(b.arena, v)
					last.n++
					return
				}
			} else {
				off := len(b.arena)
				b.arena = append(b.arena, last.val, v)
				last.off = off
				last.n = 2
				return
			}
		}
	}
	b.recs = append(b.recs, writeRec[T]{lo: i, n: 1, off: -1, val: v, add: add, writer: b.wid})
}

func (b *nBuf[T]) pushRun(lo int, src []T, add bool) {
	off := len(b.arena)
	b.arena = append(b.arena, src...)
	if k := len(b.recs); k > 0 {
		last := &b.recs[k-1]
		if last.add == add && last.lo+last.n == lo && last.off >= 0 && last.off+last.n == off {
			last.n += len(src)
			return
		}
	}
	b.recs = append(b.recs, writeRec[T]{lo: lo, n: len(src), off: off, add: add, writer: b.wid})
}

func (b *nBuf[T]) apply(d *doRun, phaseSeq int64) (int64, error) {
	var bytes int64
	var firstErr error
	strict := d.rt.gs.opt.StrictWrites
	for ri := range b.recs {
		r := &b.recs[ri]
		sr := stageRec[T]{lo: r.lo, n: r.n, add: r.add, writer: r.writer}
		if r.off >= 0 {
			sr.vals = b.arena[r.off : r.off+r.n]
		} else {
			sr.val = r.val
		}
		if err := b.a.applyRun(d.node, strict, phaseSeq, &sr); err != nil && firstErr == nil {
			firstErr = err
		}
		bytes += int64(r.n) * int64(b.a.es)
	}
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
	return bytes, firstErr
}

func (b *nBuf[T]) flushGlobal(d *doRun, t *sendTally, phaseSeq int64) error {
	bytes, err := b.apply(d, phaseSeq)
	t.localElems += bytes / int64(b.a.es)
	t.localBytes += bytes
	return err
}

func (b *nBuf[T]) flushNode(d *doRun, phaseSeq int64) (int64, error) {
	return b.apply(d, phaseSeq)
}

// bufFor finds the calling VP's write buffer for g, or draws one from
// g's pool (or makes one) and binds it to g and the VP's writer id.
func bufFor[T Elem](vp *VP, g *Global[T]) *gBuf[T] {
	for _, b := range vp.bufs {
		if b.owner() == g {
			return b.(*gBuf[T])
		}
	}
	b, _ := g.bufs.Get().(*gBuf[T])
	if b == nil {
		b = new(gBuf[T])
	}
	b.g, b.wid = g, vp.wid
	vp.bufs = append(vp.bufs, b)
	return b
}

// nodeBufFor is bufFor for a node-shared array.
func nodeBufFor[T Elem](vp *VP, a *Node[T]) *nBuf[T] {
	for _, b := range vp.bufs {
		if b.owner() == a {
			return b.(*nBuf[T])
		}
	}
	b, _ := a.bufs.Get().(*nBuf[T])
	if b == nil {
		b = new(nBuf[T])
	}
	b.a, b.wid = a, vp.wid
	vp.bufs = append(vp.bufs, b)
	return b
}

// releaseStaging returns everything d stages writes in to the pools, the
// VPs' write buffers and the raw commit streams, once d's last commit of
// the run has succeeded.
func (d *doRun) releaseStaging() {
	for i := range d.vps {
		vp := &d.vps[i]
		for _, b := range vp.bufs {
			b.release()
		}
		vp.bufs = nil
	}
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
// path) sum in VP rank order; the cached path computes the union of the
// per-VP read sets — exactly the set the old node-level map accumulated,
// but without any cross-VP lock. Interval runs are sorted and swept into
// a disjoint cover, scattered indices are deduplicated against each other
// and against the cover, and the result is counted per owning node. All
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
	if len(d.mrRuns) < na {
		d.mrRuns = append(d.mrRuns, make([][]intRun, na-len(d.mrRuns))...)
		d.mrIdx = append(d.mrIdx, make([][]int, na-len(d.mrIdx))...)
		d.mrCnt = append(d.mrCnt, make([]mergeCount, na-len(d.mrCnt))...)
	}
	// Direct counters are already per-owner sums; fold and clear them
	// first — they bypass planning entirely.
	for i := range d.vps {
		if vp := &d.vps[i]; vp.rrElems != nil {
			for n := range rrElems {
				rrElems[n] += vp.rrElems[n]
				rrBytes[n] += vp.rrBytes[n]
				vp.rrElems[n], vp.rrBytes[n] = 0, 0
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
	// Size the scratch before filling it: one counting pass over the VPs'
	// tracking, then every slice below grows at most once, to its final
	// size, instead of by doubling.
	nsegs, nkeys := 0, 0
	for i := range d.vps {
		vp := &d.vps[i]
		for id, rs := range vp.rdRuns {
			d.mrCnt[id].runs += len(rs)
		}
		for _, k := range vp.rdIdx {
			d.mrCnt[k.array].keys++
		}
	}
	for id, c := range d.mrCnt[:na] {
		nsegs += c.runs
		nkeys += c.keys
		d.mrRuns[id] = slices.Grow(d.mrRuns[id], c.runs)
		d.mrIdx[id] = slices.Grow(d.mrIdx[id], c.keys)
		d.mrCnt[id] = mergeCount{}
	}
	rec := p != nil
	if rec {
		d.rt.stats().PlanCache.Misses++
		p.beginRecord(d.openKind, d.k, na, nsegs, gs.nodes, gs.dist != nil)
		if p.vlog == nil && nkeys > 0 {
			p.vlog = make([][]readKey, d.k)
		}
	}
	for i := range d.vps {
		vp := &d.vps[i]
		if rec {
			for id := 0; id < na; id++ {
				var rs []intRun
				if id < len(vp.rdRuns) {
					rs = vp.rdRuns[id]
				}
				p.segs = append(p.segs, rs...)
				p.offs = append(p.offs, int32(len(p.segs)))
			}
		}
		for id, rs := range vp.rdRuns {
			if len(rs) > 0 {
				d.mrRuns[id] = append(d.mrRuns[id], rs...)
				vp.rdRuns[id] = rs[:0]
			}
		}
		for _, k := range vp.rdIdx {
			d.mrIdx[k.array] = append(d.mrIdx[k.array], k.idx)
		}
		if rec && p.vlog != nil {
			// The plan takes the log it will validate against and hands
			// back the one it held (empty the first time: the VP then
			// draws a fresh piece on its next scalar read).
			p.vlog[i], vp.rdIdx = vp.rdIdx, p.vlog[i]
			vp.clearReadLog()
		} else if len(vp.rdIdx) > 0 {
			vp.clearReadLog()
		}
	}
	if rec {
		p.runs = int64(nsegs + nkeys)
		p.bytesSaved = int64(nsegs) * 16
	}
	if nsegs+nkeys == 0 {
		if rec {
			p.valid = true // empty shape: replays as a no-op
		}
		return
	}
	// Merge target: the commit's counters directly, or the plan's delta
	// slices on a recording pass (added into the counters below).
	tElems, tBytes := rrElems, rrBytes
	if rec {
		tElems, tBytes = p.rrElems, p.rrBytes
	}
	for id := 0; id < na; id++ {
		runs, idxs := d.mrRuns[id], d.mrIdx[id]
		if len(runs) == 0 && len(idxs) == 0 {
			continue
		}
		arr := gs.arrays[id]
		es := int64(arr.elemBytes())
		// Sweep the runs into a disjoint cover, in place.
		if len(runs) > 1 {
			sort.Slice(runs, func(i, j int) bool { return runs[i].lo < runs[j].lo })
			m := 0
			for i := 1; i < len(runs); i++ {
				if runs[i].lo <= runs[m].hi {
					if runs[i].hi > runs[m].hi {
						runs[m].hi = runs[i].hi
					}
				} else {
					m++
					runs[m] = runs[i]
				}
			}
			runs = runs[:m+1]
			if rec {
				p.allocsSaved += 2 // sort.Slice interface + closure
			}
		}
		for _, r := range runs {
			for s := r.lo; s < r.hi; {
				owner, end := arr.ownerSpan(s)
				e := r.hi
				if e > end {
					e = end
				}
				tElems[owner] += int64(e - s)
				tBytes[owner] += int64(e-s) * es
				if rec && p.fcov != nil && owner != d.node {
					p.noteFetch(owner, id, s, e)
				}
				s = e
			}
		}
		if len(idxs) > 0 {
			sort.Ints(idxs)
			if rec {
				p.allocsSaved++ // sort.Ints interface conversion
			}
			ri, prev := 0, -1
			for _, ix := range idxs {
				if ix == prev {
					continue
				}
				prev = ix
				for ri < len(runs) && runs[ri].hi <= ix {
					ri++
				}
				if ri < len(runs) && runs[ri].lo <= ix {
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
		d.mrRuns[id] = runs[:0]
		d.mrIdx[id] = idxs[:0]
	}
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

// drainGlobal drains every VP's write buffers in rank order into the
// arrays' stages (fixing the merge order) and folds per-VP access
// counters into the node's stats; traffic accumulates into d.ctally.
// It is a method, not a closure, so the non-strict commit path carries
// no captured variables and stays allocation-free.
func (d *doRun) drainGlobal(seq int64) error {
	st := d.rt.stats()
	var firstErr error
	for i := range d.vps {
		vp := &d.vps[i]
		st.SharedReads += vp.reads
		st.SharedWrites += vp.writes
		vp.reads, vp.writes = 0, 0
		for _, b := range vp.bufs {
			if err := b.flushGlobal(d, &d.ctally, seq); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// drainGlobalSerial is drainGlobal under the node's serial section:
// node-array buffers apply immediately and feed the cross-node strict
// trackers, so strict mode serializes the drain (see commitNode).
func (d *doRun) drainGlobalSerial(seq int64) error {
	var err error
	d.rt.proc.Serial(func() { err = d.drainGlobal(seq) })
	return err
}

// applyGlobalIncoming applies every array's staged incoming records (in
// source order), accumulating per-source traffic into d.cinElems and
// d.cinBytes.
func (d *doRun) applyGlobalIncoming(seq int64) error {
	gs := d.rt.gs
	var firstErr error
	for _, arr := range gs.arrays {
		if err := arr.applyIncoming(d.node, gs.opt.StrictWrites, seq, d.cinElems, d.cinBytes); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// applyGlobalIncomingSerial is applyGlobalIncoming under the serial
// section (strict applies touch cross-node conflict trackers).
func (d *doRun) applyGlobalIncomingSerial(seq int64) error {
	var err error
	d.rt.proc.Serial(func() { err = d.applyGlobalIncoming(seq) })
	return err
}

// commit finalizes one phase: merges VP accounting (the VPs' charges from
// snapshot slot p), models the bundled communication, exchanges and
// applies staged writes (global phases), and resets per-VP state.
func (d *doRun) commit(kind phaseKind, p int32) error {
	if kind == phaseGlobal {
		if d.rt.gs.dist != nil {
			return d.commitGlobalDist()
		}
		return d.commitGlobal(p)
	}
	return d.commitNode(p)
}

// drainNode drains and applies every VP's write buffers in rank order
// (node-phase commit: records apply immediately), returning the applied
// payload bytes and the first strict error.
func (d *doRun) drainNode(seq int64) (int64, error) {
	st := d.rt.stats()
	var applyBytes int64
	var firstErr error
	for i := range d.vps {
		vp := &d.vps[i]
		st.SharedReads += vp.reads
		st.SharedWrites += vp.writes
		vp.reads, vp.writes = 0, 0
		for _, b := range vp.bufs {
			bytes, err := b.flushNode(d, seq)
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

	var firstErr error
	var applyBytes int64
	if gs.opt.StrictWrites && rt.proc != nil {
		// Strict-mode applies touch cross-node conflict trackers and the
		// shared conflict log; the turn serializes them in sequential
		// order so attribution order is mode-independent. Non-strict
		// node-phase applies touch only node-owned state and stay
		// concurrent under the parallel scheduler. (A distributed process
		// owns its whole globalState, so no turn exists or is needed.)
		applyBytes, firstErr = d.drainNodeSerial(seq)
	} else {
		applyBytes, firstErr = d.drainNode(seq)
	}
	if rt.proc != nil {
		rt.proc.ChargeMem(applyBytes)
		st.PhaseApplyTime += mach.MemTime(applyBytes)
	}
	if firstErr != nil {
		gs.noteStrict(firstErr)
	}
	return nil // strict errors surface at the end of the run
}

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

	// 1. Computation span of the phase body.
	span := d.makespan(p, vtime.Duration(mach.VPStartCost))
	computeEnd := d.phaseStart.
		Add(vtime.Duration(mach.PhaseFixedCost)).
		Add(span)

	// 2. Drain VP write buffers in rank order (fixes merge order), then
	// merge the per-VP read sets into the node-level traffic tallies.
	// All per-commit tallies live in reusable doRun scratch.
	d.resetCommitScratch(nodes)
	var firstErr error
	if opt.StrictWrites {
		// Node-array buffers apply here and feed the cross-node strict
		// trackers; see commitNode. Global-array buffers only stage into
		// this node's cells, which is safe either way.
		firstErr = d.drainGlobalSerial(seq)
	} else {
		firstErr = d.drainGlobal(seq)
	}
	d.mergeReadSets(d.crrElems, d.crrBytes)
	tally := &d.ctally
	rrElems, rrBytes := d.crrElems, d.crrBytes

	// 3. Model this node's outgoing bundled traffic: read request/reply
	// round trips plus write pushes.
	var cpu vtime.Duration
	var wireBytes int64
	var bundles int64
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

	commStart := d.phaseStart
	if opt.NoOverlap {
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

	// 4. All nodes have staged: exchange barrier.
	rt.proc.Barrier()

	// 5. Apply incoming records (in source order), paying receive-side
	// costs.
	if opt.StrictWrites {
		// Strict applies serialize (conflict trackers and the conflict
		// log are cross-node); each node still applies only runs staged
		// for its own partition. Without strict mode the applies run
		// concurrently under the parallel scheduler — every node touches
		// only its own partition and its own stage cells, and the phase's
		// exchange barrier (step 4) ordered all staging before any apply.
		if err := d.applyGlobalIncomingSerial(seq); err != nil && firstErr == nil {
			firstErr = err
		}
	} else {
		if err := d.applyGlobalIncoming(seq); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	inElems, inBytes := d.cinElems, d.cinBytes
	var inCPU vtime.Duration
	var inBundles, inWire int64
	var memBytes int64
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
	rt.proc.Charge(inCPU + mach.MemTime(memBytes))
	st.PhaseApplyTime += inCPU + mach.MemTime(memBytes)

	// 6. Everyone applied: the next phase (or node-level code) may read
	// any partition.
	rt.proc.Barrier()

	if firstErr != nil {
		// After the release the process may no longer hold the turn;
		// "first violation wins" must follow sequential order. The err
		// copy keeps the closure (and its captures) off the hot path:
		// nothing heap-allocates unless a violation actually occurred.
		err := firstErr
		rt.proc.Serial(func() { gs.noteStrict(err) })
	}
	return nil
}
