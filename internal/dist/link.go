package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"ppm/internal/wire"
)

// bundleBytes caps the bytes coalesced into one TCP write and the chunk
// a commit stream is cut into. It equals the default of core's modeled
// Options.BundleBytes, so a default run's real frames are the size of
// the bundles the simulator charges for.
const bundleBytes = 8192

// outFrame is one queued wire frame awaiting the writer's next batch.
// A commit frame's payload is not owned by the frame: it is the chunk
// stream[off:end] of the stream CommitExchange was handed, borrowed until
// the writer has copied it into its bundling buffer, and the header that
// precedes it on the wire travels here in hdr. A read reply's payload is
// the read server's copy of the data, drawn from wire's pool and owned by
// the frame: the writer hands it back once it has copied it. The request
// id that precedes it on the wire travels in id.
type outFrame struct {
	kind    byte
	payload []byte
	hdr     wire.CommitHeader // KindCommitData and KindCommitEnd only
	id      uint64            // KindReadResp only
}

// appendTo appends f's wire form to buf: the writer's one copy.
func (f outFrame) appendTo(buf []byte) []byte {
	switch f.kind {
	case wire.KindCommitData:
		return wire.AppendCommitData(buf, f.hdr, f.payload)
	case wire.KindCommitEnd:
		return wire.AppendCommitEnd(buf, f.hdr)
	case wire.KindReadResp:
		return wire.AppendReadResp(buf, f.id, f.payload)
	}
	return wire.AppendFrame(buf, f.kind, f.payload)
}

// kindStop is an in-process sentinel (never a wire kind, which start at
// 1) telling a writer goroutine to flush and exit. The out channel is
// never closed, so stray late enqueues from racing goroutines are
// harmless instead of panics.
const kindStop = byte(0)

// link is one peer connection, and the only code that touches its socket
// or writes its queue: the engine hands it frames (send, trySend) and
// verdicts (close, cut, sever); its writer goroutine bundles the queue
// onto the socket and its reader goroutine frames what arrives.
type link struct {
	id   int
	conn net.Conn
	w    io.Writer // what the writer writes to: conn, or the fault plan's writer over it
	br   *bufio.Reader
	out  chan outFrame
	// sendCodec/recvCodec are the handshake-negotiated commit-stream
	// codecs for the two directions of this link (immutable after
	// Connect). Core consults them through CommitCodec/PeerCommitCodec.
	sendCodec wire.Codec
	recvCodec wire.Codec
	// scratch is the reader goroutine's: payloads it decodes and drops.
	scratch []byte
	// endSeq is the reader goroutine's too: the highest exchange ordinal
	// of a CommitEnd it delivered from the peer. Frames on the link arrive
	// in the order the peer sent them, so a read request delivered after
	// it was sent after the peer's stream of that exchange, and is served
	// only once this rank has applied it (commitPlane.awaitRelease).
	endSeq int64
	// sawBye is set by the reader when the peer announces orderly
	// shutdown: a subsequent EOF (and silence) is then expected, not a
	// failure. Read by the heartbeat too.
	sawBye atomic.Bool
	// lastRecv/lastSent (unix nanos) drive the failure detector: probe
	// when the link has been idle outbound, declare the peer dead when
	// nothing — traffic or pong — has arrived for HeartbeatTimeout.
	lastRecv atomic.Int64
	lastSent atomic.Int64
}

// newLink builds the link over a handshaken connection, resolving its
// codecs from the local preference and the peer's Hello. Both ends run
// the same Negotiate on the same two inputs (each side's prefer, the
// other's caps), so sender and receiver agree without an extra round trip.
func newLink(id int, conn net.Conn, br *bufio.Reader, prefer wire.Codec, h wire.Hello) *link {
	return &link{
		id:        id,
		conn:      conn,
		w:         conn,
		br:        br,
		out:       make(chan outFrame, 1024),
		sendCodec: wire.Negotiate(prefer, h.Caps),
		recvCodec: wire.Negotiate(h.Prefer, wire.SupportedCaps),
	}
}

// start lifts the handshake deadline, puts the engine's fault plan (if
// any) under the writer, and starts the two goroutines.
func (l *link) start(e *Engine) {
	l.conn.SetDeadline(time.Time{})
	if e.cfg.Faults != nil {
		l.w = e.cfg.Faults.Writer(l.id, l.conn)
	}
	now := time.Now().UnixNano()
	l.lastRecv.Store(now)
	l.lastSent.Store(now)
	e.sendWg.Add(1)
	go l.writeLoop(e)
	e.wg.Add(1)
	go l.readLoop(e)
}

// send queues f, blocking while the queue is full; false means fatal
// closed first.
func (l *link) send(f outFrame, fatal <-chan struct{}) bool {
	select {
	case l.out <- f:
		l.lastSent.Store(time.Now().UnixNano())
		return true
	case <-fatal:
		return false
	}
}

// trySend queues f without blocking (pongs, abort notices, heartbeat
// probes): if the writer is saturated the frame is dropped, which is fine
// for traffic that is retried or best-effort.
func (l *link) trySend(f outFrame) bool {
	select {
	case l.out <- f:
		l.lastSent.Store(time.Now().UnixNano())
		return true
	default:
		return false
	}
}

// close queues Bye and the stop sentinel behind what is queued; the
// writer drains up to the sentinel, so this cannot block for long.
func (l *link) close() {
	l.out <- outFrame{kind: wire.KindBye}
	l.out <- outFrame{kind: kindStop}
}

// cut expires the socket's deadline, the heartbeat's verdict: the link's
// goroutines unblock without sending the FIN a close would, so a peer
// alive behind a partition reaches its own verdict instead of a bare EOF.
func (l *link) cut() { l.conn.SetDeadline(time.Now()) }

// sever closes the socket.
func (l *link) sever() { l.conn.Close() }

// writeLoop ships queued frames, coalescing everything already waiting
// into one write: the wire-level bundling. It appends what is queued
// until bundleBytes or an empty queue, then writes once. Each CommitEnd
// it copies out is acknowledged to CommitExchange, whatever becomes of
// the frame below: that ends the borrow of the phase's streams. Each
// read reply it copies out goes back to wire's pool at once. The loop
// exits on the kindStop sentinel.
func (l *link) writeLoop(e *Engine) {
	defer e.sendWg.Done()
	var buf []byte
	dead := false
	for {
		f := <-l.out
	drain:
		for f.kind != kindStop {
			e.wsFrames.Add(1)
			buf = f.appendTo(buf)
			switch f.kind {
			case wire.KindCommitEnd:
				e.ackCommit()
			case wire.KindReadResp:
				wire.PutBuf(f.payload)
			}
			if len(buf) >= bundleBytes {
				break
			}
			select {
			case f = <-l.out:
			default:
				break drain
			}
		}
		if !dead && len(buf) > 0 {
			if _, err := l.w.Write(buf); err != nil {
				dead = true
				if !e.closing.Load() {
					e.setFatal(fmt.Errorf("dist: rank %d: write to rank %d: %w", e.rank, l.id, err))
				}
			} else {
				e.wsFlushes.Add(1)
				e.wsBytes.Add(int64(len(buf)))
			}
		}
		buf = buf[:0]
		if f.kind == kindStop {
			return
		}
	}
}

// readLoop frames what arrives and hands each frame to the engine.
func (l *link) readLoop(e *Engine) {
	defer e.wg.Done()
	for {
		kind, n, err := wire.ReadFrameHeader(l.br)
		var payload []byte
		if err == nil {
			payload, err = l.readPayload(e, kind, n)
		}
		if err != nil {
			// EOF after the peer's bye (or once we are closing ourselves)
			// is the orderly end of the link, not a failure.
			if pe := (protocolError{}); errors.As(err, &pe) {
				e.protocolFatal(l.id, pe.error)
			} else if !l.sawBye.Load() && !e.closing.Load() {
				e.setFatal(fmt.Errorf("dist: rank %d: read from rank %d (during %s): %w", e.rank, l.id, e.currentOp(), err))
			}
			return
		}
		l.lastRecv.Store(time.Now().UnixNano())
		if !e.deliver(l, kind, payload) {
			return
		}
	}
}

// readPayload consumes the n payload bytes of the frame whose header was
// just read, allocating only as they arrive (wire.AppendPayload). Only a
// payload that changes goroutine gets a slice of its own: a Msg's is
// returned, and a read reply's data goes to its fetch (readReply, which
// returns nothing). A commit chunk is read straight into the tail of the
// stream the commit plane is assembling (nothing is returned either),
// and a payload that is decoded and dropped lands in the reader's one
// scratch. A length no sender produces is refused before anything is
// read.
func (l *link) readPayload(e *Engine, kind byte, n int) ([]byte, error) {
	switch kind {
	case wire.KindMsg:
		return wire.AppendPayload(nil, l.br, n)
	case wire.KindReadResp:
		if n < wire.ReadRespHeaderBytes {
			return nil, protocolError{fmt.Errorf("read response is %d bytes, want >= %d", n, wire.ReadRespHeaderBytes)}
		}
		return nil, l.readReply(e, n)
	case wire.KindCommitData:
		if n < wire.CommitHeaderBytes {
			return nil, protocolError{fmt.Errorf("commit chunk is %d bytes, want >= %d", n, wire.CommitHeaderBytes)}
		}
		hdr, err := l.readScratch(wire.CommitHeaderBytes)
		if err != nil {
			return nil, err
		}
		h, err := wire.DecodeCommitHeader(hdr)
		if err != nil {
			return nil, protocolError{err}
		}
		n -= wire.CommitHeaderBytes
		if n > bundleBytes { // the plane would size the stream for it unread
			return nil, protocolError{fmt.Errorf("rank %d's phase %d commit chunk is %d bytes, above the %d a sender cuts", l.id, h.Phase, n, bundleBytes)}
		}
		dst, err := e.commit.reserve(l.id, h, n)
		if err != nil {
			return nil, protocolError{err}
		}
		if dst == nil { // a repeat, or a stream nobody waits for any more
			_, err := l.br.Discard(n)
			return nil, err
		}
		return nil, wire.ReadPayload(l.br, dst)
	case wire.KindCommitEnd:
		if n != wire.CommitHeaderBytes {
			return nil, protocolError{fmt.Errorf("commit end is %d bytes, want %d", n, wire.CommitHeaderBytes)}
		}
	case wire.KindBye, wire.KindPing, wire.KindPong:
		if n != 0 {
			return nil, protocolError{fmt.Errorf("frame of kind %d carries %d bytes, want none", kind, n)}
		}
	case wire.KindReadReq, wire.KindAbort:
	default:
		return nil, protocolError{fmt.Errorf("unknown frame kind %d", kind)}
	}
	return l.readScratch(n)
}

// readReply reads a read reply of n payload bytes: the request id into
// the scratch, and the data apart from it, straight into a buffer from
// wire's pool, or one grown as the bytes arrive when the pool has none.
// The data goes to the fetch waiting for that id, lent until its
// ReleaseRead, or back to the pool if nobody waits for it any more.
func (l *link) readReply(e *Engine, n int) error {
	hdr, err := l.readScratch(wire.ReadRespHeaderBytes)
	if err != nil {
		return err
	}
	id, _, _ := wire.DecodeReadResp(hdr) // cannot fail: hdr is a whole header
	n -= wire.ReadRespHeaderBytes
	data := wire.PooledPayload(n)
	if data != nil {
		err = wire.ReadPayload(l.br, data)
	} else {
		data, err = wire.AppendPayload(nil, l.br, n)
	}
	if err != nil {
		return err
	}
	e.reply(id, data)
	return nil
}

// readScratch reads n payload bytes into the reader's scratch, which
// keeps whatever it grew to.
func (l *link) readScratch(n int) ([]byte, error) {
	p, err := wire.AppendPayload(l.scratch[:0], l.br, n)
	l.scratch = p[:0]
	return p, err
}
