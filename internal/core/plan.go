package core

import (
	"slices"
	"unsafe"

	"ppm/internal/wire"
)

// Steady-state phase-plan cache.
//
// PPM programs are overwhelmingly iterative: the same Do/phase shape
// runs hundreds of times per solve. The cache exploits that in two
// layers, both free of any effect on modeled results:
//
//   - Warm doRuns: Do invocations are keyed by (K, body code pointer).
//     The first invocation of a shape builds a doRun; later ones reuse
//     it, with its VP slab, its lanes and its scratch, so warm Dos
//     allocate no coordinator state. No goroutine outlives a Do.
//
//   - Phase plans: at each global-phase commit the read-set merge
//     (sort, dedup, owner split — the metadata-dominated part of the
//     hot path) records its inputs and its result into the doRun's
//     plan for that phase ordinal. The inputs are taken, not copied:
//     the plan swaps the lanes' scalar read keys and block-read runs,
//     and the VPs' segments into them, for the ones it held before
//     (none, the first time), so recording copies no key and no run.
//     The next time the same ordinal commits, the recorded inputs are
//     compared element-wise against what the VPs actually accessed; on
//     a match the merged per-owner traffic deltas are replayed and, in
//     distributed runs, the recorded fetch cover is prefetched at phase
//     open. On any mismatch the plan is invalidated and rebuilt cold,
//     and the swap hands the stale storage back to the lanes.
//
// Validation is exact (VP by VP, run-by-run comparison of block reads and
// key-by-key comparison of the scalar read log), never a hash: a
// collision would silently corrupt modeled counters, and the comparison
// is linear in the data the cold path would sort anyway. Comparing the
// logs and runs as sequences is stricter than the set equality the merge
// result depends on: a phase that reads the same keys in another order,
// or the same runs of two arrays interleaved otherwise, misses and pays a
// cold merge, but equal sequences are equal sets, so a hit can never
// replay a wrong count. Correctness therefore never depends on the
// cache; it only short-circuits recomputation of a result it has
// verified to be identical.

// doKey identifies a Do shape: the VP count and the body closure's code
// pointer. Distinct source closures get distinct code pointers, so two
// different Do call sites never share a plan; one call site re-entered
// with different captured state shares the doRun (the body is re-bound
// each invocation) and relies on plan validation to catch any resulting
// access-shape change.
type doKey struct {
	k    int
	body uintptr
}

// funcID returns the code pointer of body. A Go func value is a pointer
// to a closure object whose first word is the code address (the funcval
// layout in runtime/runtime2.go); body is never nil here (Do checks).
func funcID(body func(*VP)) uintptr {
	return **(**uintptr)(unsafe.Pointer(&body))
}

// warmCap bounds how many doRun shapes a Runtime keeps warm. Each warm
// shape holds its VP slab, lanes and plans; programs with more distinct
// shapes than this (none of the figure apps come close) evict an
// arbitrary shape, which costs a rebuild, never correctness.
const warmCap = 32

// warmDoRun returns the cached doRun for (k, body), building and
// caching one on first use.
func (rt *Runtime) warmDoRun(k int, body func(*VP)) *doRun {
	key := doKey{k: k, body: funcID(body)}
	d := rt.warm[key]
	if d == nil {
		if rt.warm == nil {
			rt.warm = make(map[doKey]*doRun)
		}
		for len(rt.warm) >= warmCap {
			for ek := range rt.warm {
				delete(rt.warm, ek)
				break
			}
		}
		d = newDoRun(rt, k)
		d.persistent = true
		rt.warm[key] = d
	}
	return d
}

// WarmSession carries a Runtime's warm doRun cache across RunDist calls
// on one engine, so a long-lived fleet serves repeated jobs with its
// phase plans recorded and its doRuns built instead of cold-starting
// every submission. It is single-run-at-a-time state (the engine runs
// one job at a time), not a concurrent structure.
//
// Reuse is scoped by key: the caller sets the key describing the next
// job (a canonical spec hash) before RunDist; a session stashed under a
// different key is discarded and the new run starts cold. Keyed reuse is
// what keeps adoption safe without any cross-job validation subtleties: an identical spec re-registers the
// same arrays, with the same ids, lengths, and partitions, in the same
// order, so every recorded plan's ids, ranges, and per-owner deltas
// mean exactly what they meant when recorded (and the usual exact
// validation still guards each phase).
type WarmSession struct {
	key   string // key the next run adopts under (SetKey)
	owner string // key warm was stashed under
	warm  map[doKey]*doRun
}

// NewWarmSession returns an empty session.
func NewWarmSession() *WarmSession { return &WarmSession{} }

// SetKey declares the identity of the next job. Reuse happens only when
// it matches the key the cached state was stashed under.
func (ws *WarmSession) SetKey(key string) { ws.key = key }

// Discard empties the session.
func (ws *WarmSession) Discard() {
	ws.warm = nil
	ws.owner = ""
}

// adopt hands the session's cached doRuns to rt at run start, re-bound
// to the new run (the Runtime, and through it the new globalState and
// the machine-derived access costs). State recorded under a different
// key is discarded.
func (ws *WarmSession) adopt(rt *Runtime) {
	if ws.owner != ws.key || ws.key == "" {
		ws.Discard()
		return
	}
	for _, d := range ws.warm {
		d.bind(rt)
	}
	rt.warm = ws.warm
	ws.warm = nil
	ws.owner = ""
}

// stash takes rt's warm cache back into the session at successful run
// end, recording the key it is now valid for. Everything that refers
// into the finished run goes here, so that a session idling between
// jobs pins none of it: the phase scratch goes back to the pools
// (doRun.release), and the Runtime, the lanes and their write buffers
// are dropped and rebuilt on first use, while the recorded phase plans
// (the expensive part, which own their keys and runs) carry over.
func (ws *WarmSession) stash(rt *Runtime) {
	for _, d := range rt.warm {
		d.release()
		d.rt, d.body = nil, nil
		d.dropLanes()
	}
	ws.warm = rt.warm
	ws.owner = ws.key
	rt.warm = nil
}

// phasePlan is the recorded read-set merge of one phase ordinal of one
// Do shape.
type phasePlan struct {
	valid bool
	kind  phaseKind
	na    int // len(gs.arrays) at record time

	// The recorded inputs, taken from the doRun by swap (see take): VP
	// v's scalar read keys and block-read runs are parts of
	// keys[segs[v].lane] and runs[segs[v].lane], the chunks its lane held.
	// The plan is their only owner. Unused when entries is 0: the phase
	// read nothing remote.
	segs []laneSeg
	keys [][][]readKey
	runs [][][]laneRun

	// The merge result: per-owner remote-read traffic deltas this
	// phase contributes, replayed into the commit's counters on a hit.
	rrElems []int64
	rrBytes []int64

	// Distributed runs only: the merged remote cover, grouped by owner
	// as the read request each owner is sent at the next phase open, so
	// VPs find every range already cached and fetch nothing.
	fcov [][]wire.ReadRange

	// The read-set entries a replay skips (PlanCacheStats.RunsReplayed):
	// runs plus keys.
	entries int64
}

// planFor returns the plan slot for the phase being committed (the
// ordinal was incremented at open), or nil when planning is off for
// this doRun. The slot may be invalid (virgin or invalidated): the
// caller records into it after a cold merge.
func (d *doRun) planFor() *phasePlan {
	if !d.persistent {
		return nil
	}
	ord := int(d.phases - 1)
	if ord < 0 {
		return nil
	}
	for len(d.plans) <= ord {
		d.plans = append(d.plans, phasePlan{})
	}
	return &d.plans[ord]
}

// peekPlan returns the plan of the phase about to open (ordinal
// d.phases, pre-increment) if one is recorded and valid, else nil.
func (d *doRun) peekPlan() *phasePlan {
	if !d.persistent || int(d.phases) >= len(d.plans) {
		return nil
	}
	p := &d.plans[int(d.phases)]
	if !p.valid {
		return nil
	}
	return p
}

// beginRecord resets p to record a fresh merge over na arrays, keeping
// slice capacity. segs, keys and runs stay: the recording pass swaps them
// (take).
func (p *phasePlan) beginRecord(kind phaseKind, na, nodes int, dist bool) {
	p.valid = false
	p.kind = kind
	p.na = na
	p.rrElems = resetInt64(p.rrElems, nodes)
	p.rrBytes = resetInt64(p.rrBytes, nodes)
	if dist {
		if cap(p.fcov) < nodes {
			p.fcov = make([][]wire.ReadRange, nodes)
		}
		p.fcov = p.fcov[:nodes]
		for i := range p.fcov {
			p.fcov[i] = p.fcov[i][:0]
		}
	} else {
		p.fcov = nil
	}
}

// noteFetch records that the phase reads [lo, hi) of array id from owner,
// extending the owner's previous range when this one continues it: runs
// of adjacent scalar reads (a halo plane read element by element) become
// one range of the request, not one each.
func (p *phasePlan) noteFetch(owner, id, lo, hi int) {
	q := p.fcov[owner]
	if n := len(q); n > 0 && q[n-1].Array == id && q[n-1].Hi == lo {
		q[n-1].Hi = hi
		return
	}
	p.fcov[owner] = append(q, wire.ReadRange{Array: id, Lo: lo, Hi: hi})
}

// take moves the phase's recorded inputs into p: p swaps its segment
// table with the doRun's, and takes the lanes' key and run chunks in use,
// handing the chunks it held to the doRun's pools, so that recording
// copies no item. The doRun's table is nil after the first recording;
// the next phase open draws one from its pool (takeSegs), and the plan's
// goes back when the run ends (releaseWarm).
func (p *phasePlan) take(d *doRun) {
	for len(p.keys) < len(d.lanes) {
		p.keys = append(p.keys, nil)
		p.runs = append(p.runs, nil)
	}
	for i := range p.keys {
		d.keyPool.put(p.keys[i]...)
		d.runPool.put(p.runs[i]...)
		clear(p.keys[i])
		clear(p.runs[i])
		p.keys[i], p.runs[i] = p.keys[i][:0], p.runs[i][:0]
		if i < len(d.lanes) {
			l := d.lanes[i]
			p.keys[i] = takeChunks(p.keys[i], &l.keys)
			p.runs[i] = takeChunks(p.runs[i], &l.runs)
		}
	}
	p.segs, d.segs = d.segs, p.segs
}

// takeChunks appends the chunks c holds this phase's parts in to list
// and drops them from c.
func takeChunks[E any](list [][]E, c *chunked[E]) [][]E {
	list = append(slices.Grow(list, max(len(c.list), chunkLists)), c.list...)
	clear(c.list)
	c.list, c.off, c.cur = c.list[:0], 0, nil
	return list
}

// planMatches reports whether the phase the VPs just finished has exactly
// the access shape p recorded: same phase kind, same array count, and per
// VP the same block-read runs and the same scalar read log, in recorded
// order (VP bodies are deterministic, so a shape-stable program
// reproduces the order).
func (d *doRun) planMatches(p *phasePlan, na int) bool {
	if p.kind != d.openKind || p.na != na {
		return false
	}
	if p.entries == 0 {
		for _, l := range d.lanes {
			if len(l.keys.list) > 0 || len(l.runs.list) > 0 {
				return false
			}
		}
		return true
	}
	for v := range d.segs {
		s, ps := &d.segs[v], &p.segs[v]
		if !slices.Equal(d.keysOf(s), part(p.keys[ps.lane], ps.keyChunk, ps.keyLo, ps.keyHi)) ||
			!slices.Equal(d.runsOf(s), part(p.runs[ps.lane], ps.runChunk, ps.runLo, ps.runHi)) {
			return false
		}
	}
	return true
}

// replay applies p's merge result: adds the recorded per-owner traffic
// deltas, without sorting, merging, or owner-splitting anything (the
// commit empties the lanes either way).
func (d *doRun) replay(p *phasePlan, rrElems, rrBytes []int64) {
	for n := range rrElems {
		rrElems[n] += p.rrElems[n]
		rrBytes[n] += p.rrBytes[n]
	}
	pc := &d.rt.stats().PlanCache
	pc.Hits++
	pc.RunsReplayed += p.entries
}

// resetInt64 returns s resized to n and zeroed, reallocating only when
// capacity is insufficient.
func resetInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
