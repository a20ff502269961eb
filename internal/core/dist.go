package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ppm/internal/mp"
	"ppm/internal/wire"
)

// DistEngine is the transport the distributed runtime plugs into core: a
// mesh of real connections between the run's node processes. The
// internal/dist package implements it over TCP; core stays free of
// sockets, and dist stays free of phase semantics.
type DistEngine interface {
	// Rank and Nodes identify this process within the mesh.
	Rank() int
	Nodes() int
	// Endpoint returns the transport for node-level message passing
	// (reductions, barriers, broadcasts).
	Endpoint() mp.Endpoint
	// CollectiveGen returns the engine's collective generation counter.
	// Each run's communicator continues it, so that collective tags are
	// unique over the engine's life: a stale copy of an earlier run's
	// message (a duplicated frame) never matches a later run's. A run
	// calls it once, as it starts, so the engine may drop every message
	// of a collective at or below the counter's value then.
	CollectiveGen() *int
	// SetReadServer installs the callback that serves peers' remote
	// reads of this process's partitions; it must return a copy, which
	// it hands over to the engine: the engine sends it as (a part of) the
	// reply and then recycles it into wire's pool (wire.PutBuf), so the
	// copy is best drawn from there (wire.GetBuf). A read a peer
	// requests after its CommitExchange of some phase must reach the
	// callback only after this rank's ReleaseCommit of that exchange:
	// before it, this rank may not have applied the phase. The callback
	// refuses an array id with an error wrapping ErrUnknownArray; the
	// engine answers that request with an empty reply and carries on
	// (any other error is fatal).
	SetReadServer(fn func(array, lo, hi int) ([]byte, error))
	// FetchRanges reads any number of ranges from the one rank that owns
	// them all, in one round trip; the reply is the ranges' bytes
	// concatenated in request order. Fetch is its one-range form. The
	// reply is lent until ReleaseRead, like the streams of a
	// CommitExchange: the caller must neither keep a reference into it
	// past the release nor write to it.
	FetchRanges(owner int, ranges []wire.ReadRange) ([]byte, error)
	Fetch(array, owner, lo, hi int) ([]byte, error)
	// ReleaseRead hands back a reply FetchRanges or Fetch returned.
	ReleaseRead(data []byte)
	// CommitExchange ships outgoing[dst] (a wire commit stream; empty
	// and self entries are skipped) to every peer and blocks until every
	// peer's complete stream for the same phase has arrived, returned
	// indexed by source. The engine borrows the outgoing streams until
	// the call returns and lends the incoming ones until ReleaseCommit:
	// the caller may overwrite the former at once, and must neither keep
	// a reference into the latter past the release nor write to them.
	CommitExchange(phase int64, outgoing [][]byte) ([][]byte, error)
	// ReleaseCommit hands back what the last CommitExchange returned.
	ReleaseCommit(in [][]byte)
	// CommitCodec returns the negotiated codec for commit streams this
	// rank sends to dst; PeerCommitCodec the codec src's streams arrive
	// in. Core transcodes around CommitExchange — the engine stays a
	// byte shipper and never parses commit payloads.
	CommitCodec(dst int) wire.Codec
	PeerCommitCodec(src int) wire.Codec
	// WireStats returns the engine-side transport counters accumulated
	// so far (frames, flushes, bytes on wire, read requests).
	WireStats() WireStats
	// Abort broadcasts a fatal error to all peers, best effort.
	Abort(err error)
}

// ErrUnknownArray is the read server's refusal of an array id this rank
// holds no storage for: the run that allocated it has ended and handed its
// storage back (a request that arrives late, or a second copy of one), or
// the program has not allocated it. Nobody waits for the reply to a late
// or repeated request, so it is no reason to fail the mesh; a fetch that
// does wait gets an empty reply and fails its length check, naming the
// range.
var ErrUnknownArray = errors.New("unknown array")

// AbortError wraps a fatal transport error. Engine implementations panic
// with it out of blocking calls (a peer died, the mesh is down) so the
// failure unwinds VP bodies and node-level program code alike; RunDist
// recovers it into the run's error.
type AbortError struct{ Err error }

func (e AbortError) Error() string { return e.Err.Error() }
func (e AbortError) Unwrap() error { return e.Err }

// RunDist executes prog as this process's share of a PPM SPMD program
// whose other nodes are separate OS processes reachable through eng. The
// program semantics — and the application results, bit for bit — are
// those of Run's sequential simulator; what changes is the substrate:
// remote reads really fetch, commits really ship deltas, collectives
// really exchange messages. The returned Report carries this node's
// runtime counters (Report.Cluster is nil: virtual time is a property of
// the simulator, not of a real run). As under Run, the run's arrays end
// with it.
func RunDist(opt Options, eng DistEngine, prog func(rt *Runtime)) (*Report, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Nodes != eng.Nodes() {
		return nil, fmt.Errorf("core: Options.Nodes = %d but the engine's mesh has %d nodes", o.Nodes, eng.Nodes())
	}
	if r := eng.Rank(); r < 0 || r >= o.Nodes {
		return nil, fmt.Errorf("core: engine rank %d out of range [0, %d)", r, o.Nodes)
	}
	gs := newGlobalState(o, eng)
	rt := &Runtime{gs: gs, comm: mp.NewEndpoint(eng.Endpoint(), eng.CollectiveGen()), node: eng.Rank()}

	// The memory mutex embodies the phase-semantics guarantee over the
	// wire: peers may read our partitions exactly while a global phase is
	// open (partitions then hold begin-of-phase values and nobody mutates
	// them), so the write side is held at node level and during commit
	// application, and released only inside open global phases. See
	// DESIGN.md §4.9 for the full argument.
	gs.memMu.Lock()
	gs.memHeld = true
	eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
		gs.memMu.RLock()
		defer gs.memMu.RUnlock()
		if array < 0 || array >= len(gs.arrays) {
			return nil, fmt.Errorf("core: node %d: remote read of %w id %d", rt.node, ErrUnknownArray, array)
		}
		return gs.arrays[array].encodeRange(rt.node, lo, hi)
	})

	// The engine's transport counters are cumulative over its lifetime;
	// on a reused engine this run's share is the delta from here.
	wsBase := eng.WireStats()

	// A warm session hands the previous run's warm doRuns and
	// recorded plans to this one (or is discarded if its key changed);
	// without one, warm state is dropped when the program ends. Either
	// way a successful run hands its write staging and its arrays back to
	// the pools, the arrays after the exit barrier.
	warm := o.Warm
	if o.NoPlanCache {
		warm = nil
	}
	if warm != nil {
		warm.adopt(rt)
	}
	runErr := runRecovered(rt.node, func() { prog(rt) })
	if runErr == nil {
		if warm != nil {
			warm.stash(rt)
		} else {
			rt.releaseWarm()
		}
	} else if warm != nil {
		warm.Discard() // a failed run drops its write staging with the rest
	}
	rt.warm = nil // the engine's read server holds rt beyond this run
	if gs.memHeld {
		gs.memMu.Unlock()
		gs.memHeld = false
	}
	if runErr == nil {
		// Exit barrier: no process tears its connections down while a
		// peer still needs them (e.g. to serve a final result fetch).
		runErr = runRecovered(rt.node, func() { rt.comm.Barrier() })
	}
	if runErr == nil {
		// Past the barrier no peer reads this rank's partitions: each
		// had every read answered before it entered. The write lock waits
		// out a request the read server is still answering (a late or
		// repeated one); once the registry is empty, the server refuses
		// the run's array ids and never reaches storage that another run
		// may have drawn by then.
		gs.memMu.Lock()
		gs.releaseArrays()
		gs.memMu.Unlock()
	}

	// Merge the engine-side and core-side wire counters into this rank's
	// stats (each process is authoritative for its own rank only, like
	// every other per-node entry).
	ws := eng.WireStats()
	ws.sub(wsBase)
	ws.ReadsCoalesced = gs.wireCoalesced.Load()
	ws.CommitBytesRaw = gs.wireCommitRaw
	ws.CommitBytesEnc = gs.wireCommitEnc
	gs.stats[rt.node].Wire = ws

	if runErr != nil {
		eng.Abort(runErr)
	}
	return gs.report(nil, runErr)
}

// runRecovered converts panics out of the program (VP coordination
// errors, transport aborts, user bugs) into the run's error.
func runRecovered(node int, f func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch e := r.(type) {
		case AbortError:
			err = e.Err
		case error:
			err = e
		default:
			err = fmt.Errorf("core: node %d: program panicked: %v", node, r)
		}
	}()
	f()
	return nil
}

// openPhaseDist is the distributed global-phase entry: it invalidates
// the remote-read caches, releases the memory mutex so peers can fetch
// begin-of-phase values, and exchanges doK with every peer directly (the
// simulator's nodes share theirs). The exchange is the only
// synchronization between phases: a rank sends its doK after its
// previous apply and its mutex release, so once every peer's doK is here
// every partition holds the previous phase's values and serves reads.
func (d *doRun) openPhaseDist() {
	rt := d.rt
	gs := rt.gs
	for _, arr := range gs.arrays {
		arr.resetDistCache()
	}
	if gs.memHeld {
		gs.memMu.Unlock()
		gs.memHeld = false
	}
	ks := mp.AllgatherDirect(rt.comm, []int{gs.doK[d.node]})
	copy(gs.doK, ks)

	// If this phase ordinal has a valid recorded plan, prefetch its
	// remote cover now: the doK exchange is a full synchronization, so
	// every peer has released its memory mutex and can serve reads. VPs then
	// find every recorded range already cached and fetch nothing. A plan
	// that later turns out not to match only prefetched ranges the phase
	// was free to read anyway (begin-of-phase values are immutable), so
	// a stale prefetch can cost time, never correctness.
	// (The array-count guard is belt and braces: a plan recorded over a
	// different array population must not drive prefetches.)
	if p := d.peekPlan(); p != nil && p.fcov != nil && p.na == len(gs.arrays) {
		d.prefetchPlan(p)
	}
}

// prefetchPlan fetches a replayed plan's recorded remote cover with one
// request per owner, whatever the number of arrays and ranges. One owner
// (every 2-rank mesh, most stencil neighbours) is fetched right here on
// the coordinator; several are all in flight at once, a goroutine each. It
// runs before any VP resumes, so nothing else touches the covers or the
// remote images meanwhile; the recorded ranges are remote-owned and
// disjoint, so the concurrent installs overlap neither each other nor the
// partitions the read server serves.
func (d *doRun) prefetchPlan(p *phasePlan) {
	gs := d.rt.gs
	owners, only := 0, -1
	for owner, ranges := range p.fcov {
		if len(ranges) > 0 {
			owners++
			only = owner
		}
	}
	switch owners {
	case 0:
		return
	case 1:
		if err := gs.fetchInstall(only, p.fcov[only]); err != nil {
			panic(AbortError{Err: err})
		}
	default:
		if cap(d.pferrs) < len(p.fcov) {
			d.pferrs = make([]error, len(p.fcov))
		}
		errs := d.pferrs[:len(p.fcov)]
		clear(errs)
		var wg sync.WaitGroup
		for owner, ranges := range p.fcov {
			if len(ranges) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[owner] = gs.fetchInstall(owner, ranges)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				panic(AbortError{Err: err})
			}
		}
	}
	for _, ranges := range p.fcov {
		for _, r := range ranges {
			gs.arrays[r.Array].addCover(r.Lo, r.Hi)
		}
	}
}

// fetchInstall reads ranges from owner in one round trip, lands the reply
// in the local images of the arrays they name, and hands it back.
func (gs *globalState) fetchInstall(owner int, ranges []wire.ReadRange) error {
	data, err := gs.dist.FetchRanges(owner, ranges)
	if err != nil {
		return err
	}
	err = gs.installReply(owner, ranges, data)
	gs.dist.ReleaseRead(data)
	return err
}

// installReply slices a read reply by the ranges requested. The reply
// carries no lengths of its own: each range's size follows from its
// array's element size, every slice is length-checked by installRange,
// and bytes missing or left over are a fatal protocol error.
func (gs *globalState) installReply(owner int, ranges []wire.ReadRange, data []byte) error {
	off := 0
	for _, r := range ranges {
		arr := gs.arrays[r.Array]
		end := off + (r.Hi-r.Lo)*arr.elemBytes()
		if end > len(data) {
			return fmt.Errorf("core: read reply from rank %d is %d bytes, short of %s[%d:%d) at offset %d",
				owner, len(data), arr.label(), r.Lo, r.Hi, off)
		}
		if err := arr.installRange(r.Lo, r.Hi, data[off:end]); err != nil {
			return err
		}
		off = end
	}
	if off != len(data) {
		return fmt.Errorf("core: read reply from rank %d is %d bytes, %d more than the %d ranges requested",
			owner, len(data), len(data)-off, len(ranges))
	}
	return nil
}

// --- Global[T]'s distributed-side methods -------------------------------

// resetDistCache implements registeredArray: forget every remotely
// fetched range.
func (g *Global[T]) resetDistCache() {
	if g.gs.dist == nil {
		return
	}
	g.dmu.Lock()
	g.dcov = g.dcov[:0]
	g.dmu.Unlock()
}

// encodeRange implements registeredArray: the read-server side of a
// remote fetch. The requested range must lie inside this node's
// partition (the requester split by owner); the returned bytes are a
// copy taken under the caller's read lock into a buffer from wire's
// pool, handed over to the engine (DistEngine.SetReadServer).
func (g *Global[T]) encodeRange(node, lo, hi int) ([]byte, error) {
	plo, phi := g.part.Range(node)
	if lo < plo || hi > phi || lo > hi {
		return nil, fmt.Errorf("core: remote read of %s[%d:%d) outside node %d's partition [%d:%d)",
			g.name, lo, hi, node, plo, phi)
	}
	return mp.AppendElems(wire.GetBuf((hi-lo)*g.es), g.base[lo-g.off:hi-g.off]), nil
}

// installRange implements registeredArray: land fetched bytes in the line
// image. The lines they fall in are allocated first, under the cover
// mutex: a line that straddles a partition boundary takes installs from
// two owners, and a plan prefetch runs those concurrently. The bytes then
// land without the mutex (ranges in flight are disjoint, see distFetch).
func (g *Global[T]) installRange(lo, hi int, data []byte) error {
	if lo < 0 || hi > g.n || lo > hi || len(data) != (hi-lo)*g.es {
		return fmt.Errorf("core: bad remote read reply for %s[%d:%d): %d bytes", g.name, lo, hi, len(data))
	}
	if lo == hi {
		return nil
	}
	line := g.lmask + 1
	g.dmu.Lock()
	for k := lo >> g.lshift; k <= (hi-1)>>g.lshift; k++ {
		if g.lines[k] == nil {
			g.lines[k] = g.storage(min(line, g.n-k<<g.lshift))
		}
	}
	g.dmu.Unlock()
	for s := lo; s < hi; {
		e := min(hi, (s>>g.lshift+1)<<g.lshift)
		mp.DecodeElemsInto(g.lines[s>>g.lshift][s&g.lmask:][:e-s], data[:(e-s)*g.es])
		data = data[(e-s)*g.es:]
		s = e
	}
	return nil
}

// encodeStagedWire implements registeredArray: append to buf the block of
// runs src's VPs wrote to dst this phase, which flushGlobal already put in
// wire form, and empty it.
func (g *Global[T]) encodeStagedWire(src, dst int, buf []byte) []byte {
	n := g.wruns[src][dst]
	if n == 0 {
		return buf
	}
	w := g.wout[src][dst]
	buf = wire.AppendBlockHeader(buf, g.id, n)
	buf = append(buf, *w...)
	*w, g.wruns[src][dst] = (*w)[:0], 0
	return buf
}

// release implements registeredArray: hand the per-peer wire buffers
// (every commit has emptied them) back to wireStaging, and the partition
// and every fetched line back to store.
func (g *Global[T]) release() {
	for _, row := range g.wout {
		putWire(row)
	}
	g.store.Put(g.base)
	for _, l := range g.lines {
		g.store.Put(l)
	}
	g.base, g.lines = nil, nil
	clear(g.bnd)
	g.ended = true
}

// applyWireRuns implements registeredArray: apply one block of a peer's
// commit stream to node's partition.
func (g *Global[T]) applyWireRuns(node int, strict bool, phaseSeq int64, rd *wire.CommitReader, nRuns int) (elems int, strictErr, err error) {
	dst, lo0 := g.span(node)
	return g.applyWire(dst, lo0, node, strict, phaseSeq, rd, nRuns)
}

// encodeCheckpoint implements registeredArray: node's partition.
func (g *Global[T]) encodeCheckpoint(node int, buf []byte) []byte {
	dst, lo0 := g.span(node)
	return g.encodeImage(dst, lo0, node, buf)
}

// restoreCheckpoint implements registeredArray: reinstall node's
// partition.
func (g *Global[T]) restoreCheckpoint(node int, rd *wire.CommitReader, nRuns int) error {
	dst, lo0 := g.span(node)
	return g.restoreImage(dst, lo0, node, rd, nRuns)
}

// addCover implements registeredArray: mark a range a plan prefetch has
// installed as locally valid, so every VP read of it is a cache hit.
func (g *Global[T]) addCover(lo, hi int) {
	g.dmu.Lock()
	g.dcov = coverAdd(g.dcov, lo, hi)
	g.dmu.Unlock()
}

// fetchLineBytes is the transfer unit of a demand miss. A message costs a
// fixed latency plus its bytes over the bandwidth (the two-level model of
// arXiv:0810.2150), and on every link the fleet runs on 4 KiB moves in
// less time than one frame costs to send: a VP that has to pay a round
// trip anyway brings the whole aligned line back with it, so its
// neighbours in index space (the rest of a halo plane, the next probes of
// a search) are hits. It is a constant of the cost model, not a window:
// nothing adapts it and nothing configures it (512 bytes won as clearly).
const fetchLineBytes = 4096

// distFetch ensures [lo, hi) of g, a range inside owner's partition
// (owner is not this node), is locally valid. The per-array cover doubles
// as the fetch cache: within a phase a shared variable is immutable, so
// every element is fetched at most once per node per phase, mirroring the
// simulator's modeled read cache.
//
// A VP that misses claims the aligned lines around what it is missing
// (claimLines) and fetches them in the one round trip it was going to pay
// anyway. The single flight is fleet-wide across this node's VPs: a VP
// claims what nobody else is fetching (dpend), releases the cover mutex,
// and fetches over the wire concurrently with other claimants; a VP whose
// whole gap is already in flight waits on the cover's condition and is
// fanned the result without widening anything. Claimed ranges are
// disjoint by construction, so the unlocked installRange calls never
// overlap each other or a reader (a VP only reads ranges the cover
// already includes).
func (g *Global[T]) distFetch(owner, lo, hi int) {
	g.dmu.Lock()
	if g.dcnd == nil {
		g.dcnd = sync.NewCond(&g.dmu)
	}
	waited := false
	for {
		if len(coverMissing(g.dcov, lo, hi)) == 0 {
			g.dmu.Unlock()
			if waited {
				g.gs.wireCoalesced.Add(1)
			}
			return
		}
		mine := g.claimLines(owner, lo, hi)
		if len(mine) == 0 {
			// Everything still missing is in flight from other VPs.
			waited = true
			g.dcnd.Wait()
			continue
		}
		g.dmu.Unlock()

		err := g.fetchRuns(owner, mine)

		g.dmu.Lock()
		for _, r := range mine {
			g.dpend = coverSub(g.dpend, r.Lo, r.Hi)
			if err == nil {
				g.dcov = coverAdd(g.dcov, r.Lo, r.Hi)
			}
		}
		// Wake waiters even on failure: they re-claim the ranges, hit the
		// dead engine's fast error path, and unwind instead of hanging.
		g.dcnd.Broadcast()
		if err != nil {
			g.dmu.Unlock()
			panic(AbortError{Err: err})
		}
	}
}

// claimLines marks in flight, and returns, what the caller must fetch to
// make [lo, hi) valid: for every stretch of it neither covered nor already
// in flight, the lines it touches (fetchLineBytes of elements, aligned on
// the global index, clipped to owner's partition) minus what the cover
// holds or another VP is fetching. The claims are sorted and disjoint;
// none means the whole gap is in flight elsewhere. Caller holds dmu.
func (g *Global[T]) claimLines(owner, lo, hi int) []wire.ReadRange {
	line := fetchLineBytes / g.es
	plo, phi := g.bnd[owner], g.bnd[owner+1]
	var mine []wire.ReadRange
	for _, need := range g.unclaimed(lo, hi) {
		wlo := max(need.lo-need.lo%line, plo)
		whi := min((need.hi+line-1)/line*line, phi)
		// Widening an earlier stretch may have claimed this one's lines.
		for _, r := range g.unclaimed(wlo, whi) {
			g.dpend = coverAdd(g.dpend, r.lo, r.hi)
			mine = append(mine, wire.ReadRange{Array: g.id, Lo: r.lo, Hi: r.hi})
		}
	}
	return mine
}

// unclaimed returns the subranges of [lo, hi) neither covered nor in
// flight (sorted, disjoint). Caller holds dmu.
func (g *Global[T]) unclaimed(lo, hi int) []intRun {
	var out []intRun
	for _, gap := range coverMissing(g.dcov, lo, hi) {
		out = append(out, coverMissing(g.dpend, gap.lo, gap.hi)...)
	}
	return out
}

// fetchRuns pulls the claimed ranges from owner without holding the cover
// mutex: one round trip, however many gaps it fills.
func (g *Global[T]) fetchRuns(owner int, reqs []wire.ReadRange) error {
	gs := g.gs
	if len(reqs) > 1 {
		return gs.fetchInstall(owner, reqs)
	}
	// The engine's one-range form.
	data, err := gs.dist.Fetch(g.id, owner, reqs[0].Lo, reqs[0].Hi)
	if err != nil {
		return err
	}
	err = gs.installReply(owner, reqs, data)
	gs.dist.ReleaseRead(data)
	return err
}

// coverMissing returns the subranges of [lo, hi) not covered by cov
// (sorted, disjoint).
func coverMissing(cov []intRun, lo, hi int) []intRun {
	var out []intRun
	// Runs ending at or before lo cannot matter; skip them by bisection
	// (a phase of scattered scalar reads grows a cover of thousands).
	first := sort.Search(len(cov), func(k int) bool { return cov[k].hi > lo })
	for _, r := range cov[first:] {
		if r.lo >= hi {
			break
		}
		if r.lo > lo {
			out = append(out, intRun{lo: lo, hi: r.lo})
		}
		if lo = r.hi; lo >= hi {
			return out
		}
	}
	if lo < hi {
		out = append(out, intRun{lo: lo, hi: hi})
	}
	return out
}

// coverAdd inserts [lo, hi) into cov in place, keeping it sorted,
// disjoint and canonical (runs that overlap or touch are merged).
func coverAdd(cov []intRun, lo, hi int) []intRun {
	if lo >= hi {
		return cov
	}
	// Runs [i, j) overlap or touch [lo, hi): i is the first run ending at
	// or after lo, j the first run starting after hi.
	i := sort.Search(len(cov), func(k int) bool { return cov[k].hi >= lo })
	j := i
	for j < len(cov) && cov[j].lo <= hi {
		j++
	}
	if i == j {
		cov = append(cov, intRun{})
		copy(cov[i+1:], cov[i:])
		cov[i] = intRun{lo: lo, hi: hi}
		return cov
	}
	if cov[i].lo < lo {
		lo = cov[i].lo
	}
	if cov[j-1].hi > hi {
		hi = cov[j-1].hi
	}
	cov[i] = intRun{lo: lo, hi: hi}
	return append(cov[:i+1], cov[j:]...)
}

// coverSub removes [lo, hi) from cov in place, splitting runs that
// straddle an endpoint.
func coverSub(cov []intRun, lo, hi int) []intRun {
	if lo >= hi {
		return cov
	}
	// Runs [i, j) intersect [lo, hi); of them only a left part of the
	// first and a right part of the last can survive.
	i := sort.Search(len(cov), func(k int) bool { return cov[k].hi > lo })
	j := i
	for j < len(cov) && cov[j].lo < hi {
		j++
	}
	if i == j {
		return cov
	}
	left, right := cov[i], cov[j-1]
	if left.lo < lo && right.hi > hi && j-i == 1 {
		// One run splits in two: the only case that grows the cover.
		cov = append(cov, intRun{})
		copy(cov[i+2:], cov[i+1:])
		cov[i] = intRun{lo: left.lo, hi: lo}
		cov[i+1] = intRun{lo: hi, hi: right.hi}
		return cov
	}
	k := i
	if left.lo < lo {
		cov[k] = intRun{lo: left.lo, hi: lo}
		k++
	}
	if right.hi > hi {
		cov[k] = intRun{lo: hi, hi: right.hi}
		k++
	}
	return append(cov[:k], cov[j:]...)
}

// --- Node[T]'s distributed-side methods ---------------------------------
//
// Node arrays are strictly node-local: nothing about them crosses the
// wire, so the distributed hooks are error stubs (reaching one is a
// protocol bug, not a user error).

func (a *Node[T]) resetDistCache() {}

func (a *Node[T]) addCover(lo, hi int) {}

func (a *Node[T]) encodeRange(node, lo, hi int) ([]byte, error) {
	return nil, fmt.Errorf("core: remote read of node-shared %q", a.name)
}

func (a *Node[T]) installRange(lo, hi int, data []byte) error {
	return fmt.Errorf("core: remote install into node-shared %q", a.name)
}

func (a *Node[T]) encodeStagedWire(src, dst int, buf []byte) []byte { return buf }

// release implements registeredArray: hand the instances back to store.
func (a *Node[T]) release() {
	for i, inst := range a.base {
		a.store.Put(inst)
		a.base[i] = nil
	}
	a.ended = true
}

func (a *Node[T]) applyWireRuns(node int, strict bool, phaseSeq int64, rd *wire.CommitReader, nRuns int) (int, error, error) {
	return 0, nil, fmt.Errorf("core: commit delta addressed to node-shared %q", a.name)
}

// encodeCheckpoint: node arrays never cross the wire mid-run, but their
// local instance is part of this rank's committed state, so checkpoints
// carry it — the full [0, n) image.
func (a *Node[T]) encodeCheckpoint(node int, buf []byte) []byte {
	return a.encodeImage(a.base[node], 0, node, buf)
}

func (a *Node[T]) restoreCheckpoint(node int, rd *wire.CommitReader, nRuns int) error {
	return a.restoreImage(a.base[node], 0, node, rd, nRuns)
}
