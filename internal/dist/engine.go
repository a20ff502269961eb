// Package dist is the distributed execution subsystem: it runs a PPM
// program as N real OS processes — one per modeled node — talking over
// TCP. The Engine implements core.DistEngine (remote reads, phase-commit
// delta exchange, abort propagation) and mp.Endpoint (node-level message
// passing for the collectives), so the exact program and collective
// algorithms that run under the simulator run unchanged over sockets.
//
// Each peer connection is one link (link.go): a bundling writer that
// coalesces every frame queued while a send is in flight — fine-grained
// messages, read requests and replies, commit-delta chunks — into a
// single TCP write of up to bundleBytes, and a framing reader. VPs keep
// computing while the writer ships, which is the overlap the paper's
// bundling layer exists for. mesh.go forms the mesh, detector.go watches
// it, and mailbox.go and commitplane.go hold what the readers deliver.
package dist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/faultinject"
	"ppm/internal/mp"
	"ppm/internal/wire"
)

// serveReq is a peer's remote read awaiting the server goroutine; after
// is the exchange this rank must have released before serving it (the
// link's endSeq when the request arrived).
type serveReq struct {
	dst    int
	id     uint64
	after  int64
	ranges []wire.ReadRange
}

// fetchWait is one in-flight remote read: the slot its reply lands in and
// the timer bounding the wait. Both are reused across reads through
// Engine.waitPool — but only by a read that received its reply, because a
// read abandoned on timeout or mesh death may still be sent a late reply.
type fetchWait struct {
	ch chan []byte
	tm *time.Timer
}

// Engine is one process's connection mesh. It is created by Connect,
// passed to core.RunDist, and closed after the run.
type Engine struct {
	rank  int
	nodes int
	cfg   Config // as Connect was given it, defaults filled in

	// Engine-side wire counters (see core.WireStats); written by the
	// link writers and Fetch, read whole by WireStats.
	wsFrames   atomic.Int64
	wsFlushes  atomic.Int64
	wsBytes    atomic.Int64
	wsReadReqs atomic.Int64

	// ops holds the operations currently blocked on the mesh (several at
	// once when VPs fetch concurrently), purely to make detector errors
	// precise.
	opMu sync.Mutex
	ops  []wireOp

	hbStop chan struct{}
	hbWg   sync.WaitGroup

	links []*link // links[rank] == nil

	mail mailbox
	// collGen is the generation of node-level collectives, continued by
	// every run on the engine (CollectiveGen); only the running job's
	// node-level code touches it.
	collGen int
	commit  commitPlane
	// commitAck carries one token per CommitEnd frame a writer has copied
	// out: what ends CommitExchange's borrow of the caller's streams.
	commitAck chan struct{}

	reqSeq atomic.Uint64
	pendMu sync.Mutex
	pend   map[uint64]*fetchWait
	// waitPool recycles fetchWaits; see the type for who may return one.
	waitPool sync.Pool

	serveCh chan serveReq
	// server is installed by core.RunDist — once per run, so on a
	// reused engine it is replaced between jobs. serverMu orders the
	// swap against in-flight serves; serverOnce closes serverReady on
	// the first installation (the serve loop starts then and never
	// stops between jobs).
	serverMu    sync.RWMutex
	server      func(array, lo, hi int) ([]byte, error)
	serverOnce  sync.Once
	serverReady chan struct{}

	byeCh chan int // peer ids that announced orderly shutdown

	fatalOnce sync.Once
	fatalMu   sync.Mutex
	fatal     error
	fatalCh   chan struct{}

	closing atomic.Bool
	sendWg  sync.WaitGroup // writer goroutines
	wg      sync.WaitGroup // reader + server goroutines
}

func (e *Engine) setFatal(err error) {
	e.fatalOnce.Do(func() {
		e.fatalMu.Lock()
		e.fatal = err
		e.fatalMu.Unlock()
		close(e.fatalCh)
		e.mail.kill()
		e.commit.kill(err)
	})
}

func (e *Engine) fatalErr() error {
	e.fatalMu.Lock()
	defer e.fatalMu.Unlock()
	if e.fatal == nil {
		return fmt.Errorf("dist: rank %d: engine shut down", e.rank)
	}
	return e.fatal
}

// protocolError marks a frame the peer should never have sent, as opposed
// to a link that failed under a well-formed one.
type protocolError struct{ error }

func (e *Engine) protocolFatal(from int, err error) {
	e.setFatal(fmt.Errorf("dist: rank %d: protocol error from rank %d: %w", e.rank, from, err))
}

// deliver demultiplexes one frame a link's reader framed to the mailbox,
// the read server, and the commit plane; false ends the reader. (A read
// reply the reader hands to its fetch itself.)
func (e *Engine) deliver(l *link, kind byte, payload []byte) bool {
	switch kind {
	case wire.KindMsg:
		tag, data, hasData, err := wire.DecodeMsg(payload)
		if err != nil {
			e.protocolFatal(l.id, err)
			return false
		}
		e.mail.put(mailMsg{src: l.id, tag: int(tag), data: data, hasData: hasData})
	case wire.KindReadReq:
		id, ranges, err := wire.DecodeReadReq(payload)
		if err != nil {
			e.protocolFatal(l.id, err)
			return false
		}
		select {
		case e.serveCh <- serveReq{dst: l.id, id: id, after: l.endSeq, ranges: ranges}:
		case <-e.fatalCh:
			return false
		}
	case wire.KindReadResp:
		// The reader handed the reply to its fetch (link.readReply).
	case wire.KindCommitData:
		// The reader put the chunk where it belongs.
	case wire.KindCommitEnd:
		h, err := wire.DecodeCommitEnd(payload)
		if err == nil {
			err = e.commit.end(l.id, h)
		}
		if err != nil {
			e.protocolFatal(l.id, err)
			return false
		}
		l.endSeq = max(l.endSeq, h.Seq)
	case wire.KindAbort:
		e.setFatal(fmt.Errorf("dist: rank %d aborted: %s", l.id, wire.DecodeAbort(payload)))
		return false
	case wire.KindPing:
		l.trySend(outFrame{kind: wire.KindPong})
	case wire.KindPong:
		// The reader's lastRecv is the whole point.
	case wire.KindBye:
		l.sawBye.Store(true)
		e.byeCh <- l.id // capacity nodes: never blocks
	}
	return true
}

// reply hands a read reply's data, a buffer from wire's pool, to the
// fetch waiting for id. A reply nobody waits for (its fetch timed out,
// or the frame is a repeat) goes straight back to the pool.
func (e *Engine) reply(id uint64, data []byte) {
	e.pendMu.Lock()
	w := e.pend[id]
	delete(e.pend, id)
	e.pendMu.Unlock()
	if w == nil {
		wire.PutBuf(data)
		return
	}
	w.ch <- data // capacity 1, one reply per id: never blocks
}

// serveLoop answers peers' remote reads once core has installed the read
// server. Serving runs outside the reader goroutines so a request that
// blocks on the memory lock never stalls frame demultiplexing.
//
// A request that followed the peer's stream of an exchange this rank has
// not yet released waits for the release first: that is a node-level
// read after a phase, and until the release this rank's partitions may
// not hold the phase's apply. The wait cannot hold up a read that would
// let the release happen: the requester finished that exchange, so every
// rank had ended its stream, and a rank ends its stream only once all its
// in-phase reads are answered.
func (e *Engine) serveLoop() {
	defer e.wg.Done()
	select {
	case <-e.serverReady:
	case <-e.fatalCh:
		return
	}
	var parts [][]byte // readReply's scratch, kept across requests
	for {
		select {
		case req := <-e.serveCh:
			if e.commit.awaitRelease(req.after) != nil {
				return
			}
			e.serverMu.RLock()
			server := e.server
			e.serverMu.RUnlock()
			var reply []byte
			var err error
			// A refused array id gets an empty reply (see
			// core.ErrUnknownArray); any other error is fatal.
			if reply, parts, err = readReply(server, req.ranges, parts); err != nil && !errors.Is(err, core.ErrUnknownArray) {
				e.Abort(fmt.Errorf("dist: rank %d: serving read for rank %d: %w", e.rank, req.dst, err))
				return
			}
			if e.enqueue(req.dst, outFrame{kind: wire.KindReadResp, id: req.id, payload: reply}) != nil {
				return
			}
		case <-e.fatalCh:
			return
		}
	}
}

// readReply answers one read request through server, which hands over a
// copy of each range (see SetReadServer). A one-range request (a demand
// miss's line) sends that copy as it is; the copies of several are
// collected in parts (the caller's scratch, handed back for the next
// request), joined into one pooled reply of their summed size, and go
// back to the pool. Either way the reply is the frame's, and the link
// writer recycles it.
func readReply(server func(array, lo, hi int) ([]byte, error), ranges []wire.ReadRange, parts [][]byte) ([]byte, [][]byte, error) {
	parts = parts[:0]
	size := 0
	var err error
	for _, r := range ranges {
		var data []byte
		if data, err = server(r.Array, r.Lo, r.Hi); err != nil {
			break
		}
		parts = append(parts, data)
		size += len(data)
	}
	var reply []byte
	switch {
	case err != nil:
	case len(parts) == 1:
		reply, parts[0] = parts[0], nil
	default:
		reply = wire.GetBuf(size)
		for _, p := range parts {
			reply = append(reply, p...)
		}
	}
	for _, p := range parts {
		wire.PutBuf(p)
	}
	clear(parts) // the scratch keeps no copy alive
	return reply, parts[:0], err
}

// enqueue queues one frame for dst's writer.
func (e *Engine) enqueue(dst int, f outFrame) error {
	if e.closing.Load() {
		return fmt.Errorf("dist: rank %d: send to rank %d after close", e.rank, dst)
	}
	if !e.links[dst].send(f, e.fatalCh) {
		return e.fatalErr()
	}
	return nil
}

// ackCommit reports that a writer has copied a CommitEnd frame, and with
// it everything of that stream, out of the queue.
func (e *Engine) ackCommit() {
	select {
	case e.commitAck <- struct{}{}:
	case <-e.fatalCh:
	}
}

// Rank implements mp.Endpoint and core.DistEngine.
func (e *Engine) Rank() int { return e.rank }

// Procs implements mp.Endpoint.
func (e *Engine) Procs() int { return e.nodes }

// Nodes implements core.DistEngine.
func (e *Engine) Nodes() int { return e.nodes }

// Endpoint implements core.DistEngine.
func (e *Engine) Endpoint() mp.Endpoint { return e }

// CollectiveGen implements core.DistEngine. A run asks for the counter
// as it starts, so every collective at or below its value has finished:
// the mailbox drops their messages.
func (e *Engine) CollectiveGen() *int {
	e.mail.dropBefore(e.collGen)
	return &e.collGen
}

// Send implements mp.Endpoint: marshal the typed payload to native-order
// bytes and queue it (self-sends skip the wire). The mp API is
// panic-on-failure, so transport death surfaces as core.AbortError.
func (e *Engine) Send(dst, tag int, payload any, bytes int) {
	data, isNil := mp.MarshalPayload(payload)
	if dst == e.rank {
		e.mail.put(mailMsg{src: e.rank, tag: tag, data: data, hasData: !isNil})
		return
	}
	if err := e.enqueue(dst, outFrame{kind: wire.KindMsg, payload: wire.EncodeMsg(int64(tag), data, !isNil)}); err != nil {
		panic(core.AbortError{Err: err})
	}
}

// Recv implements mp.Endpoint: block until a matching message arrives,
// bounded by OpTimeout like every other remote wait — a peer that lost
// the message (or its mind) must not park this rank until the watchdog.
func (e *Engine) Recv(src, tag int) *cluster.Message {
	op := wireOp{kind: opRecv, peer: src, tag: tag}
	e.beginOp(op)
	defer e.endOp(op)
	m, ok, timedOut := e.mail.recv(src, tag, e.cfg.OpTimeout)
	if timedOut {
		panic(core.AbortError{Err: fmt.Errorf("dist: rank %d: recv (src=%d, tag=%d) timed out after %v",
			e.rank, src, tag, e.cfg.OpTimeout)})
	}
	if !ok {
		panic(core.AbortError{Err: e.fatalErr()})
	}
	msg := &cluster.Message{Src: m.src, Tag: m.tag, Bytes: len(m.data)}
	if m.hasData {
		msg.Payload = mp.RawPayload(m.data)
	}
	return msg
}

// ChargeFlops implements mp.Endpoint; real runs do not model time.
func (e *Engine) ChargeFlops(n int64) {}

// SetReadServer implements core.DistEngine. The copies the server returns
// are handed over: once a reply frame is on its way they go back to
// wire's pool. Each RunDist installs its own server (a closure over that
// run's state); on a reused engine the new installation replaces the
// old. The swap cannot race a peer's read of the previous job's data,
// which was answered before that peer entered the previous run's exit
// barrier, nor hand a read of this job to the old server: a peer reads
// inside a global phase, whose opening doK exchange it completes only
// once every rank has opened it, or at node level after one.
func (e *Engine) SetReadServer(fn func(array, lo, hi int) ([]byte, error)) {
	e.serverMu.Lock()
	e.server = fn
	e.serverMu.Unlock()
	e.serverOnce.Do(func() { close(e.serverReady) })
}

// CommitCodec implements core.DistEngine: the handshake-negotiated
// codec for commit streams this rank sends to dst (raw for self and
// unconnected ranks).
func (e *Engine) CommitCodec(dst int) wire.Codec {
	if dst >= 0 && dst < len(e.links) && e.links[dst] != nil {
		return e.links[dst].sendCodec
	}
	return wire.CodecRaw
}

// PeerCommitCodec implements core.DistEngine: the codec src's commit
// streams arrive in.
func (e *Engine) PeerCommitCodec(src int) wire.Codec {
	if src >= 0 && src < len(e.links) && e.links[src] != nil {
		return e.links[src].recvCodec
	}
	return wire.CodecRaw
}

// WireStats implements core.DistEngine: the engine-side transport
// counters accumulated so far (core adds its own fields on top).
func (e *Engine) WireStats() core.WireStats {
	return core.WireStats{
		FramesOut:    e.wsFrames.Load(),
		Flushes:      e.wsFlushes.Load(),
		BytesOnWire:  e.wsBytes.Load(),
		ReadReqsSent: e.wsReadReqs.Load(),
	}
}

// Fetch implements core.DistEngine: FetchRanges for one range.
func (e *Engine) Fetch(array, owner, lo, hi int) ([]byte, error) {
	r := [1]wire.ReadRange{{Array: array, Lo: lo, Hi: hi}}
	return e.FetchRanges(owner, r[:])
}

// FetchRanges implements core.DistEngine: one synchronous remote read of
// any number of ranges owner holds — one request frame, one reply frame
// carrying the ranges' bytes in request order — bounded by OpTimeout so
// a wedged owner cannot park the fleet until the launcher's watchdog.
// The reply is a buffer from wire's pool, the one the link reader read
// the frame into, lent to the caller until ReleaseRead.
func (e *Engine) FetchRanges(owner int, ranges []wire.ReadRange) ([]byte, error) {
	if len(ranges) == 0 {
		return nil, nil
	}
	op := wireOp{kind: opFetch, peer: owner, n: len(ranges), first: ranges[0]}
	e.beginOp(op)
	defer e.endOp(op)
	w, _ := e.waitPool.Get().(*fetchWait)
	if w == nil {
		w = &fetchWait{ch: make(chan []byte, 1)}
	}
	id := e.reqSeq.Add(1)
	e.pendMu.Lock()
	e.pend[id] = w
	e.pendMu.Unlock()
	drop := func() {
		e.pendMu.Lock()
		delete(e.pend, id)
		e.pendMu.Unlock()
	}
	if err := e.enqueue(owner, outFrame{kind: wire.KindReadReq, payload: wire.EncodeReadReq(id, ranges)}); err != nil {
		drop()
		return nil, err
	}
	e.wsReadReqs.Add(1)
	var timeoutCh <-chan time.Time
	if e.cfg.OpTimeout > 0 {
		if w.tm == nil {
			w.tm = time.NewTimer(e.cfg.OpTimeout)
		} else {
			w.tm.Reset(e.cfg.OpTimeout)
		}
		timeoutCh = w.tm.C
	}
	var data []byte
	var err error
	select {
	case data = <-w.ch:
	case <-e.fatalCh:
		err = e.fatalErr()
	case <-timeoutCh:
		err = fmt.Errorf("dist: rank %d: %s timed out after %v", e.rank, op, e.cfg.OpTimeout)
	}
	if w.tm != nil {
		w.tm.Stop()
	}
	if err != nil {
		drop()
		return nil, err
	}
	e.waitPool.Put(w)
	return data, nil
}

// CommitExchange implements core.DistEngine: chunk each destination's
// delta stream into bundle-sized frames, mark each stream's end, and
// block until every peer's complete stream for this phase is in (bounded
// by OpTimeout, naming the missing ranks on expiry).
//
// Streams cross the engine by reference. The queued frames borrow
// outgoing[dst] — the one copy is the writer's, into its bundling buffer —
// so the call returns only once every peer's writer has taken this
// phase's last frame, and the caller may overwrite its streams the moment
// it does. The streams returned are lent from the commit plane's pool
// until ReleaseCommit. After an error the engine is finished (the caller
// aborts it) and the borrow may be outstanding: the streams of a failed
// exchange must not be reused. One exchange runs at a time.
//
// The phase boundary is also where phase-targeted faults trigger: the
// injection plan learns the current phase here, and kill/sever items
// fire on entry — a rank dying exactly at the Nth boundary is the
// checkpoint/restart test's scenario.
func (e *Engine) CommitExchange(phase int64, outgoing [][]byte) ([][]byte, error) {
	e.phaseFaults(phase)
	op := wireOp{kind: opCommit, phase: phase}
	e.beginOp(op)
	defer e.endOp(op)
	seq := e.commit.next()
	for dst := 0; dst < e.nodes; dst++ {
		if dst == e.rank {
			continue
		}
		stream := outgoing[dst]
		if len(stream) > wire.MaxFrame {
			return nil, fmt.Errorf("dist: rank %d: commit stream of phase %d for rank %d is %d bytes, above the %d-byte bound",
				e.rank, phase, dst, len(stream), wire.MaxFrame)
		}
		f := outFrame{kind: wire.KindCommitData, hdr: wire.CommitHeader{Seq: seq, Phase: phase, Total: len(stream)}}
		for ; f.hdr.Off < len(stream); f.hdr.Off += bundleBytes {
			f.payload = stream[f.hdr.Off:min(f.hdr.Off+bundleBytes, len(stream))]
			if err := e.enqueue(dst, f); err != nil {
				return nil, err
			}
		}
		f.kind, f.payload = wire.KindCommitEnd, nil
		if err := e.enqueue(dst, f); err != nil {
			return nil, err
		}
	}
	for n := 1; n < e.nodes; n++ {
		select {
		case <-e.commitAck:
		case <-e.fatalCh:
			return nil, e.fatalErr()
		}
	}
	return e.commit.wait(seq, phase, e.rank, e.cfg.OpTimeout)
}

// phaseFaults tells the fault plan, if any, the phase whose commit this
// rank is entering and fires the plan's kill and sever items for it.
func (e *Engine) phaseFaults(phase int64) {
	if e.cfg.Faults == nil {
		return
	}
	e.cfg.Faults.SetPhase(phase)
	if e.cfg.Faults.KillNow(phase) {
		fmt.Fprintf(os.Stderr, "ppm-node[%d]: fault injection: killing rank at commit of phase %d\n", e.rank, phase)
		os.Exit(faultinject.KillExitCode)
	}
	for _, victim := range e.cfg.Faults.SeverNow(phase) {
		for _, l := range e.links {
			if l != nil && (victim == -1 || l.id == victim) {
				l.sever()
			}
		}
	}
}

// ReleaseRead implements core.DistEngine: the caller is done with the
// reply its FetchRanges or Fetch returned, and it goes back to the pool.
func (e *Engine) ReleaseRead(data []byte) { wire.PutBuf(data) }

// ReleaseCommit implements core.DistEngine: the caller is done with the
// streams its last CommitExchange returned, and they go back to the pool.
func (e *Engine) ReleaseCommit(in [][]byte) { e.commit.release(in) }

// Abort implements core.DistEngine: best-effort notification of every
// peer, then local shutdown of all blocking operations.
func (e *Engine) Abort(err error) {
	if err == nil {
		return
	}
	payload := wire.EncodeAbort(err.Error())
	for _, l := range e.links {
		if l != nil {
			l.trySend(outFrame{kind: wire.KindAbort, payload: payload})
		}
	}
	e.setFatal(err)
}

// StartJobDeadline arms a whole-job wall-clock deadline: if it expires
// before the returned cancel function runs, the engine aborts the fleet
// with an error naming this rank, the deadline, and the mesh operation
// in flight (the same attribution the failure detector uses), so a
// wedged or overlong job tears down with a diagnosis instead of hanging
// until an operator kills it. d <= 0 arms nothing.
func (e *Engine) StartJobDeadline(d time.Duration) (cancel func()) {
	if d <= 0 {
		return func() {}
	}
	t := time.AfterFunc(d, func() {
		e.Abort(fmt.Errorf("dist: rank %d: job deadline %v exceeded during %s", e.rank, d, e.currentOp()))
	})
	return func() { t.Stop() }
}

// Close tears the mesh down: announce shutdown to every peer, flush,
// wait for every peer's own announcement, then sever the links and join
// all goroutines. Call it after core.RunDist returns.
//
// The bye exchange is what makes close races benign: no connection drops
// until both ends (and, transitively, every rank) have said goodbye, so
// a fast rank's EOF can never cut off frames a slow rank still has in
// flight to a third one.
func (e *Engine) Close() error {
	if !e.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(e.hbStop) // no probes (or false deaths) during the bye exchange
	e.hbWg.Wait()
	for _, l := range e.links {
		if l != nil {
			l.close()
		}
	}
	e.sendWg.Wait() // writers drain their queues and flush
	timeout := time.After(e.cfg.DrainTimeout)
byes:
	for got := 1; got < e.nodes; got++ {
		select {
		case <-e.byeCh:
		case <-e.fatalCh:
			break byes // mesh already failed; nothing more to wait for
		case <-timeout:
			break byes
		}
	}
	for _, l := range e.links {
		if l != nil {
			l.sever()
		}
	}
	e.setFatal(fmt.Errorf("dist: rank %d: engine closed", e.rank))
	e.wg.Wait()
	return nil
}
