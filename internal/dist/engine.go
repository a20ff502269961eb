// Package dist is the distributed execution subsystem: it runs a PPM
// program as N real OS processes — one per modeled node — talking over
// TCP. The Engine implements core.DistEngine (remote reads, phase-commit
// delta exchange, abort propagation) and mp.Endpoint (node-level message
// passing for the collectives), so the exact program and collective
// algorithms that run under the simulator run unchanged over sockets.
//
// Wire-level bundling happens in the per-peer writer goroutine: every
// frame queued while a send is in flight — fine-grained messages, read
// requests and replies, commit-delta chunks — coalesces into a single
// TCP write of up to bundleBytes. VPs keep computing while the writer
// ships, which is the overlap the paper's bundling layer exists for.
package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/faultinject"
	"ppm/internal/mp"
	"ppm/internal/rng"
	"ppm/internal/wire"
)

// Config describes one process's place in the mesh.
type Config struct {
	// Rank and Nodes identify this process; ranks are dense in [0, Nodes).
	Rank  int
	Nodes int
	// RendezvousDir is a shared directory through which the processes
	// exchange their listen addresses (each rank publishes
	// node-<rank>.addr). The usual choice for localhost launches.
	RendezvousDir string
	// ListenAddr is the address to listen on when using the rendezvous
	// (default "127.0.0.1:0").
	ListenAddr string
	// Codec is the commit-stream codec this rank prefers to send with;
	// each link falls back to raw unless the peer advertises support
	// (negotiated in the Hello handshake, see wire.Negotiate).
	Codec wire.Codec
	// ConnectTimeout bounds rendezvous plus mesh establishment (default
	// 30s).
	ConnectTimeout time.Duration
	// RunID tags this launch. The rendezvous publishes it in the address
	// files and readers ignore files from a different launch, so a retried
	// run can reuse the rendezvous dir without dialing dead addresses.
	// Empty accepts any file (hand-started fleets).
	RunID string
	// HeartbeatInterval is how often an otherwise-idle link carries a
	// Ping probe (default 500ms; negative disables the detector).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay completely silent
	// before it is declared dead (default 5s; negative disables).
	HeartbeatTimeout time.Duration
	// OpTimeout bounds one remote operation: a remote read's reply, or
	// the wait for the slowest peer's commit stream (default 60s;
	// negative disables).
	OpTimeout time.Duration
	// DrainTimeout bounds the orderly bye exchange in Close — how long a
	// surviving rank waits for peers to say goodbye before cutting the
	// links (default 10s, the value previously hardcoded).
	DrainTimeout time.Duration
	// Faults, when non-nil, injects the plan's faults under this rank's
	// wire seams. Test/chaos use only.
	Faults *faultinject.Plan
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("dist: Nodes = %d, need at least 1", c.Nodes)
	}
	if c.Rank < 0 || c.Rank >= c.Nodes {
		return c, fmt.Errorf("dist: Rank = %d out of [0, %d)", c.Rank, c.Nodes)
	}
	if c.RendezvousDir == "" && c.Nodes > 1 {
		return c, fmt.Errorf("dist: need RendezvousDir to find the other %d nodes", c.Nodes-1)
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 30 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 60 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c, nil
}

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
// the read server's own copy of the data, with the request id that
// precedes it on the wire in id.
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

type peer struct {
	id   int
	conn net.Conn
	br   *bufio.Reader
	out  chan outFrame
	// sendCodec/recvCodec are the handshake-negotiated commit-stream
	// codecs for the two directions of this link (immutable after
	// Connect). Core consults them through CommitCodec/PeerCommitCodec.
	sendCodec wire.Codec
	recvCodec wire.Codec
	// scratch is the reader goroutine's: payloads it decodes and drops.
	scratch []byte
	// sawBye is set by the peer's reader goroutine when the peer
	// announces orderly shutdown: a subsequent EOF (and silence) is then
	// expected, not a failure. Read by the heartbeat checker too.
	sawBye atomic.Bool
	// lastRecv/lastSent (unix nanos) drive the failure detector: probe
	// when the link has been idle outbound, declare the peer dead when
	// nothing — traffic or pong — has arrived for HeartbeatTimeout.
	lastRecv atomic.Int64
	lastSent atomic.Int64
}

// scratchFor returns n bytes of the reader goroutine's scratch.
func (p *peer) scratchFor(n int) []byte {
	if cap(p.scratch) < n {
		p.scratch = make([]byte, n)
	}
	return p.scratch[:n]
}

// tryEnqueue queues a frame without blocking (pongs, abort notices,
// heartbeat probes): if the writer is saturated the frame is dropped,
// which is fine for traffic that is retried or best-effort.
func (p *peer) tryEnqueue(f outFrame) bool {
	select {
	case p.out <- f:
		p.lastSent.Store(time.Now().UnixNano())
		return true
	default:
		return false
	}
}

// serveReq is a peer's remote read awaiting the server goroutine.
type serveReq struct {
	dst    int
	id     uint64
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
	codec wire.Codec // preferred send codec, before per-link negotiation

	hbInterval   time.Duration
	hbTimeout    time.Duration
	opTimeout    time.Duration
	drainTimeout time.Duration
	faults       *faultinject.Plan

	// Engine-side wire counters (see core.WireStats); written by the
	// per-peer writers and Fetch, read whole by WireStats.
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

	ln    net.Listener
	peers []*peer // peers[rank] == nil

	mail   mailbox
	commit commitPlane
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
	done    chan struct{}
	sendWg  sync.WaitGroup // writer goroutines
	wg      sync.WaitGroup // reader + server goroutines
}

// Connect establishes the full mesh: listen, publish/learn addresses,
// dial every lower rank and accept every higher one (the ordering makes
// sequential establishment deadlock-free), handshake each link, and
// start the per-peer reader and writer goroutines.
func Connect(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		rank:         cfg.Rank,
		nodes:        cfg.Nodes,
		codec:        cfg.Codec,
		hbInterval:   cfg.HeartbeatInterval,
		hbTimeout:    cfg.HeartbeatTimeout,
		opTimeout:    cfg.OpTimeout,
		drainTimeout: cfg.DrainTimeout,
		faults:       cfg.Faults,
		peers:        make([]*peer, cfg.Nodes),
		pend:         make(map[uint64]*fetchWait),
		serveCh:      make(chan serveReq, 1024),
		serverReady:  make(chan struct{}),
		commitAck:    make(chan struct{}, cfg.Nodes-1), // one token per peer for the one exchange in flight
		byeCh:        make(chan int, cfg.Nodes),
		fatalCh:      make(chan struct{}),
		done:         make(chan struct{}),
	}
	e.mail.init()
	e.commit.init(cfg.Nodes)
	if cfg.Nodes == 1 {
		e.startServer()
		return e, nil
	}

	deadline := time.Now().Add(cfg.ConnectTimeout)
	e.ln, err = net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d listen: %w", cfg.Rank, err)
	}
	addrs, err := rendezvous(cfg.RendezvousDir, cfg.RunID, cfg.Rank, cfg.Nodes, e.ln.Addr().String(), deadline)
	if err != nil {
		e.ln.Close()
		return nil, err
	}

	fail := func(err error) (*Engine, error) {
		e.ln.Close()
		for _, p := range e.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		return nil, err
	}
	// Dial every lower rank (they are already accepting: rank 0 dials
	// nobody, and by induction rank j < rank finished its dials first).
	for j := 0; j < cfg.Rank; j++ {
		p, err := dialPeer(addrs[j], cfg.Rank, j, cfg.Nodes, deadline, cfg.Codec)
		if err != nil {
			return fail(err)
		}
		e.peers[j] = p
	}
	// Accept every higher rank.
	for n := cfg.Rank + 1; n < cfg.Nodes; n++ {
		if d, ok := e.ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		conn, err := e.ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("dist: rank %d accept: %w", cfg.Rank, err))
		}
		p, err := acceptPeer(conn, cfg.Rank, cfg.Nodes, deadline, cfg.Codec)
		if err != nil {
			conn.Close()
			return fail(err)
		}
		if e.peers[p.id] != nil {
			conn.Close()
			return fail(fmt.Errorf("dist: rank %d: duplicate connection from rank %d", cfg.Rank, p.id))
		}
		e.peers[p.id] = p
	}

	now := time.Now().UnixNano()
	for _, p := range e.peers {
		if p == nil {
			continue
		}
		p.conn.SetDeadline(time.Time{})
		p.lastRecv.Store(now)
		p.lastSent.Store(now)
		e.sendWg.Add(1)
		go e.writeLoop(p)
		e.wg.Add(1)
		go e.readLoop(p)
	}
	if e.hbInterval > 0 && e.hbTimeout > 0 {
		e.hbStop = make(chan struct{})
		e.hbWg.Add(1)
		go e.heartbeatLoop()
	}
	e.startServer()
	return e, nil
}

func (e *Engine) startServer() {
	e.wg.Add(1)
	go e.serveLoop()
}

// rendezvous publishes this rank's address in dir and polls until every
// rank's file is present. Address files carry the launch's run-id on
// their first line; files tagged with a different run-id are leftovers
// from a previous launch and are ignored, so a retried launch can reuse
// the directory without dialing dead addresses. An empty run-id accepts
// anything (hand-started fleets).
func rendezvous(dir, runID string, rank, nodes int, addr string, deadline time.Time) ([]string, error) {
	tmp := filepath.Join(dir, fmt.Sprintf(".node-%d.addr.tmp", rank))
	if err := os.WriteFile(tmp, []byte(runID+"\n"+addr), 0o644); err != nil {
		return nil, fmt.Errorf("dist: rank %d rendezvous: %w", rank, err)
	}
	final := filepath.Join(dir, fmt.Sprintf("node-%d.addr", rank))
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("dist: rank %d rendezvous: %w", rank, err)
	}
	addrs := make([]string, nodes)
	addrs[rank] = addr
	bo := newBackoff(uint64(rank)*131 + 17)
	for {
		missing := -1
		for n := 0; n < nodes; n++ {
			if addrs[n] != "" {
				continue
			}
			a, ok := readAddrFile(filepath.Join(dir, fmt.Sprintf("node-%d.addr", n)), runID)
			if !ok {
				missing = n
				continue
			}
			addrs[n] = a
		}
		if missing < 0 {
			return addrs, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: rank %d rendezvous: timed out waiting for rank %d in %s", rank, missing, dir)
		}
		time.Sleep(bo.next())
	}
}

// readAddrFile loads one rendezvous file, rejecting files published by a
// different launch (stale run-id) and the pre-run-id legacy format when
// a run-id is expected.
func readAddrFile(path, runID string) (string, bool) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return "", false
	}
	id, addr, ok := strings.Cut(string(b), "\n")
	if !ok {
		// Legacy single-line file (address only, no run-id tag).
		if runID != "" {
			return "", false
		}
		return string(b), true
	}
	if runID != "" && id != runID {
		return "", false
	}
	if addr == "" {
		return "", false
	}
	return addr, true
}

// backoff is the exponential-backoff-with-jitter schedule shared by the
// rendezvous poll and the dial retry loop: 1ms doubling to a ~1s cap,
// each wait jittered ±50% from a per-caller deterministic stream so an
// N-node storm neither spins the CPU nor thunders in lockstep.
type backoff struct {
	wait time.Duration
	r    *rng.RNG
}

func newBackoff(salt uint64) *backoff {
	return &backoff{wait: time.Millisecond, r: rng.New(0x9e3779b97f4a7c15).Split(salt + 1)}
}

func (b *backoff) next() time.Duration {
	d := b.wait/2 + time.Duration(b.r.Float64()*float64(b.wait))
	if b.wait < time.Second {
		b.wait *= 2
		if b.wait > time.Second {
			b.wait = time.Second
		}
	}
	return d
}

func dialPeer(addr string, self, target, nodes int, deadline time.Time, prefer wire.Codec) (*peer, error) {
	var conn net.Conn
	var err error
	bo := newBackoff(uint64(self)<<16 | uint64(target))
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: rank %d dial rank %d (%s): %w", self, target, addr, err)
		}
		time.Sleep(bo.next())
	}
	conn.SetDeadline(deadline)
	hello := wire.EncodeHello(wire.Hello{Rank: self, Nodes: nodes, LittleEndian: wire.NativeLittleEndian(),
		Caps: wire.SupportedCaps, Prefer: prefer})
	if _, err := conn.Write(wire.AppendFrame(nil, wire.KindHello, hello)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d hello to rank %d: %w", self, target, err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	kind, payload, err := wire.ReadFrame(br)
	if err != nil || kind != wire.KindHelloAck {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d handshake with rank %d: kind=%d err=%v", self, target, kind, err)
	}
	h, err := wire.DecodeHello(payload, nodes)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d handshake with rank %d: %w", self, target, err)
	}
	if h.Rank != target {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d dialed rank %d but reached rank %d", self, target, h.Rank)
	}
	return newPeer(target, conn, br, prefer, h), nil
}

func acceptPeer(conn net.Conn, self, nodes int, deadline time.Time, prefer wire.Codec) (*peer, error) {
	conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, 64<<10)
	kind, payload, err := wire.ReadFrame(br)
	if err != nil || kind != wire.KindHello {
		return nil, fmt.Errorf("dist: rank %d accept handshake: kind=%d err=%v", self, kind, err)
	}
	h, err := wire.DecodeHello(payload, nodes)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d accept handshake: %w", self, err)
	}
	if h.Rank <= self || h.Rank >= nodes {
		return nil, fmt.Errorf("dist: rank %d accepted unexpected rank %d", self, h.Rank)
	}
	ack := wire.EncodeHello(wire.Hello{Rank: self, Nodes: nodes, LittleEndian: wire.NativeLittleEndian(),
		Caps: wire.SupportedCaps, Prefer: prefer})
	if _, err := conn.Write(wire.AppendFrame(nil, wire.KindHelloAck, ack)); err != nil {
		return nil, fmt.Errorf("dist: rank %d hello-ack to rank %d: %w", self, h.Rank, err)
	}
	return newPeer(h.Rank, conn, br, prefer, h), nil
}

// newPeer builds the peer record, resolving the link's codecs from the
// local preference and the peer's Hello. Both ends run the same
// Negotiate on the same two inputs (each side's prefer, the other's
// caps), so sender and receiver agree without an extra round trip.
func newPeer(id int, conn net.Conn, br *bufio.Reader, prefer wire.Codec, h wire.Hello) *peer {
	return &peer{
		id:        id,
		conn:      conn,
		br:        br,
		out:       make(chan outFrame, 1024),
		sendCodec: wire.Negotiate(prefer, h.Caps),
		recvCodec: wire.Negotiate(h.Prefer, wire.SupportedCaps),
	}
}

// --- engine-side fatal handling -----------------------------------------

func (e *Engine) setFatal(err error) {
	e.fatalOnce.Do(func() {
		e.fatalMu.Lock()
		e.fatal = err
		e.fatalMu.Unlock()
		close(e.fatalCh)
		e.mail.kill()
		e.commit.kill()
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

// --- failure detector ---------------------------------------------------

// wireOp is one blocking mesh operation, kept as its operands so the hot
// paths record it without formatting anything; String runs only when an
// error is built.
type wireOp struct {
	kind opKind
	// opFetch: peer is the owner, n the range count, first the first range.
	// opRecv: peer is the source, tag the tag. opCommit: phase.
	peer, n int
	first   wire.ReadRange
	tag     int
	phase   int64
}

type opKind uint8

const (
	opFetch opKind = iota + 1
	opRecv
	opCommit
)

func (o wireOp) String() string {
	switch o.kind {
	case opFetch:
		s := fmt.Sprintf("remote read of array %d [%d:%d)", o.first.Array, o.first.Lo, o.first.Hi)
		if o.n > 1 {
			s += fmt.Sprintf(" and %d more ranges", o.n-1)
		}
		return fmt.Sprintf("%s from rank %d", s, o.peer)
	case opRecv:
		return fmt.Sprintf("node-level recv (src=%d, tag=%d)", o.peer, o.tag)
	default:
		return fmt.Sprintf("commit exchange for phase %d", o.phase)
	}
}

// beginOp records a mesh operation this rank is about to block on, so
// detector errors can name it; endOp removes it (any equal record: equal
// operations are interchangeable).
func (e *Engine) beginOp(op wireOp) {
	e.opMu.Lock()
	e.ops = append(e.ops, op)
	e.opMu.Unlock()
}

func (e *Engine) endOp(op wireOp) {
	e.opMu.Lock()
	for i := range e.ops {
		if e.ops[i] == op {
			last := len(e.ops) - 1
			e.ops[i] = e.ops[last]
			e.ops = e.ops[:last]
			break
		}
	}
	e.opMu.Unlock()
}

// currentOp describes what this rank is blocked on: one in-flight
// operation and how many others are in flight beside it.
func (e *Engine) currentOp() string {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	switch n := len(e.ops); n {
	case 0:
		return "local compute (no wire op in flight)"
	case 1:
		return e.ops[0].String()
	default:
		return fmt.Sprintf("%s (and %d more wire ops in flight)", e.ops[0], n-1)
	}
}

// heartbeatLoop is the failure detector: it probes links that have been
// idle outbound for HeartbeatInterval and declares a peer dead when
// nothing at all has arrived from it for HeartbeatTimeout. Any inbound
// frame counts as life, so probes only flow on otherwise-quiet links
// (long pure-compute phases). A dead peer's connection gets an expired
// deadline, which unblocks its reader and writer goroutines without
// sending the FIN a Close would: a peer that is alive behind a partition
// then reaches its own verdict instead of reporting a bare EOF.
func (e *Engine) heartbeatLoop() {
	defer e.hbWg.Done()
	tick := e.hbInterval / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-e.hbStop:
			return
		case <-e.fatalCh:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for _, p := range e.peers {
			if p == nil || p.sawBye.Load() {
				continue
			}
			silent := time.Duration(now - p.lastRecv.Load())
			if silent > e.hbTimeout {
				e.setFatal(fmt.Errorf("dist: rank %d: rank %d unresponsive for %v (heartbeat timeout %v) during %s",
					e.rank, p.id, silent.Round(time.Millisecond), e.hbTimeout, e.currentOp()))
				p.conn.SetDeadline(time.Now())
				continue
			}
			if time.Duration(now-p.lastSent.Load()) >= e.hbInterval {
				p.tryEnqueue(outFrame{kind: wire.KindPing})
			}
		}
	}
}

// --- per-peer goroutines ------------------------------------------------

// writeLoop ships queued frames, coalescing everything already waiting
// into one TCP write: the wire-level bundling. It appends what is queued
// until bundleBytes or an empty queue, then writes once. The loop exits
// on the kindStop sentinel (the out channel is never closed).
// The fault-injection seam sits here, under the bundling layer and
// after core's codec transcode, so an injected drop/dup/truncation
// affects exactly one post-codec wire frame.
func (e *Engine) writeLoop(p *peer) {
	defer e.sendWg.Done()
	var buf []byte
	dead := false
	flush := func() {
		if dead || len(buf) == 0 {
			buf = buf[:0]
			return
		}
		n := len(buf)
		_, err := p.conn.Write(buf)
		buf = buf[:0]
		if err != nil {
			dead = true
			if !e.closing.Load() {
				e.setFatal(fmt.Errorf("dist: rank %d: write to rank %d: %w", e.rank, p.id, err))
			}
			return
		}
		e.wsFlushes.Add(1)
		e.wsBytes.Add(int64(n))
	}
	appendFrame := func(f outFrame) {
		e.wsFrames.Add(1)
		if f.kind == wire.KindCommitEnd {
			// Whatever becomes of the frame below, this phase's streams
			// toward p are no longer referenced from the queue.
			defer e.ackCommit()
		}
		if e.faults == nil {
			buf = f.appendTo(buf)
			return
		}
		if e.faults.Blackholed(p.id) {
			return
		}
		fault := e.faults.Frame(p.id, f.kind)
		if fault.Delay > 0 {
			flush()
			time.Sleep(fault.Delay)
		}
		if fault.Drop {
			return
		}
		start := len(buf)
		buf = f.appendTo(buf)
		if n := len(buf) - start - wire.FrameHeaderBytes; fault.Trunc && n > 0 {
			// Re-framed truncation: the payload (for a commit frame,
			// header and chunk taken together) is cut to half and gets a
			// correct length prefix, so the receiver sees a cleanly
			// corrupted frame (decode error) rather than a desynced byte
			// stream that hangs in ReadFrame forever.
			buf = buf[:start+wire.FrameHeaderBytes+n/2]
			binary.LittleEndian.PutUint32(buf[start:], uint32(1+n/2))
		}
		if fault.Dup {
			buf = append(buf, buf[start:]...)
		}
	}
	for {
		f := <-p.out
	drain:
		for f.kind != kindStop {
			appendFrame(f)
			if len(buf) >= bundleBytes {
				break
			}
			select {
			case f = <-p.out:
			default:
				break drain
			}
		}
		flush()
		if f.kind == kindStop {
			return
		}
	}
}

// readLoop demultiplexes one peer's frames to the mailbox, the read
// server, the pending-fetch table, and the commit plane.
func (e *Engine) readLoop(p *peer) {
	defer e.wg.Done()
	for {
		kind, n, err := wire.ReadFrameHeader(p.br)
		var payload []byte
		if err == nil {
			payload, err = e.readPayload(p, kind, n)
		}
		if err != nil {
			// EOF after the peer's bye (or once we are closing ourselves)
			// is the orderly end of the link, not a failure.
			if pe := (protocolError{}); errors.As(err, &pe) {
				e.protocolFatal(p.id, pe.error)
			} else if !p.sawBye.Load() && !e.closing.Load() {
				e.setFatal(fmt.Errorf("dist: rank %d: read from rank %d (during %s): %w", e.rank, p.id, e.currentOp(), err))
			}
			return
		}
		p.lastRecv.Store(time.Now().UnixNano())
		switch kind {
		case wire.KindMsg:
			tag, data, hasData, err := wire.DecodeMsg(payload)
			if err != nil {
				e.protocolFatal(p.id, err)
				return
			}
			e.mail.put(mailMsg{src: p.id, tag: int(tag), data: data, hasData: hasData})
		case wire.KindReadReq:
			id, ranges, err := wire.DecodeReadReq(payload)
			if err != nil {
				e.protocolFatal(p.id, err)
				return
			}
			select {
			case e.serveCh <- serveReq{dst: p.id, id: id, ranges: ranges}:
			case <-e.fatalCh:
				return
			case <-e.done:
				return
			}
		case wire.KindReadResp:
			id, data, err := wire.DecodeReadResp(payload)
			if err != nil {
				e.protocolFatal(p.id, err)
				return
			}
			e.pendMu.Lock()
			w := e.pend[id]
			delete(e.pend, id)
			e.pendMu.Unlock()
			if w != nil {
				w.ch <- data // capacity 1, one reply per id: never blocks
			}
		case wire.KindCommitData:
			// readPayload put the chunk where it belongs.
		case wire.KindCommitEnd:
			h, err := wire.DecodeCommitEnd(payload)
			if err == nil {
				err = e.commit.end(p.id, h)
			}
			if err != nil {
				e.protocolFatal(p.id, err)
				return
			}
		case wire.KindAbort:
			e.setFatal(fmt.Errorf("dist: rank %d aborted: %s", p.id, wire.DecodeAbort(payload)))
			return
		case wire.KindPing:
			p.tryEnqueue(outFrame{kind: wire.KindPong})
		case wire.KindPong:
			// lastRecv above is the whole point.
		case wire.KindBye:
			p.sawBye.Store(true)
			e.byeCh <- p.id // capacity nodes: never blocks
		}
	}
}

// readPayload consumes the n payload bytes of the frame whose header was
// just read. Only a payload that changes goroutine (Msg, ReadResp) gets a
// slice of its own; a commit chunk is read straight into the tail of the
// stream the commit plane is assembling (and nothing is returned), and a
// payload that is decoded and dropped lands in the reader's one scratch.
func (e *Engine) readPayload(p *peer, kind byte, n int) ([]byte, error) {
	switch kind {
	case wire.KindMsg, wire.KindReadResp:
		payload := make([]byte, n)
		return payload, wire.ReadPayload(p.br, payload)
	case wire.KindCommitData:
		if n < wire.CommitHeaderBytes {
			return nil, protocolError{fmt.Errorf("commit chunk is %d bytes, want >= %d", n, wire.CommitHeaderBytes)}
		}
		hdr := p.scratchFor(wire.CommitHeaderBytes)
		if err := wire.ReadPayload(p.br, hdr); err != nil {
			return nil, err
		}
		h, err := wire.DecodeCommitHeader(hdr)
		if err != nil {
			return nil, protocolError{err}
		}
		n -= wire.CommitHeaderBytes
		dst, err := e.commit.reserve(p.id, h, n)
		if err != nil {
			return nil, protocolError{err}
		}
		if dst == nil { // a repeat, or a stream nobody waits for any more
			_, err := p.br.Discard(n)
			return nil, err
		}
		return nil, wire.ReadPayload(p.br, dst)
	case wire.KindReadReq, wire.KindCommitEnd, wire.KindAbort, wire.KindBye, wire.KindPing, wire.KindPong:
		payload := p.scratchFor(n)
		return payload, wire.ReadPayload(p.br, payload)
	}
	return nil, protocolError{fmt.Errorf("unknown frame kind %d", kind)}
}

// protocolError marks a frame the peer should never have sent, as opposed
// to a link that failed under a well-formed one.
type protocolError struct{ error }

func (e *Engine) protocolFatal(from int, err error) {
	e.setFatal(fmt.Errorf("dist: rank %d: protocol error from rank %d: %w", e.rank, from, err))
}

// serveLoop answers peers' remote reads once core has installed the read
// server. Serving runs outside the reader goroutines so a request that
// blocks on the memory lock never stalls frame demultiplexing.
func (e *Engine) serveLoop() {
	defer e.wg.Done()
	select {
	case <-e.serverReady:
	case <-e.fatalCh:
		return
	case <-e.done:
		return
	}
	for {
		select {
		case req := <-e.serveCh:
			e.serverMu.RLock()
			server := e.server
			e.serverMu.RUnlock()
			// The server returns copies: the first range's is the reply, and
			// a one-range request (a demand miss's line) copies nothing more.
			var reply []byte
			for i, r := range req.ranges {
				data, err := server(r.Array, r.Lo, r.Hi)
				if err != nil {
					e.Abort(fmt.Errorf("dist: rank %d: serving read for rank %d: %w", e.rank, req.dst, err))
					return
				}
				if i == 0 {
					reply = data
				} else {
					reply = append(reply, data...)
				}
			}
			if e.enqueue(req.dst, outFrame{kind: wire.KindReadResp, id: req.id, payload: reply}) != nil {
				return
			}
		case <-e.fatalCh:
			return
		case <-e.done:
			return
		}
	}
}

// send queues one frame that owns its payload for dst's writer.
func (e *Engine) send(dst int, kind byte, payload []byte) error {
	return e.enqueue(dst, outFrame{kind: kind, payload: payload})
}

// enqueue queues one frame for dst's writer.
func (e *Engine) enqueue(dst int, f outFrame) error {
	if e.closing.Load() {
		return fmt.Errorf("dist: rank %d: send to rank %d after close", e.rank, dst)
	}
	p := e.peers[dst]
	select {
	case p.out <- f:
		p.lastSent.Store(time.Now().UnixNano())
		return nil
	case <-e.fatalCh:
		return e.fatalErr()
	}
}

// ackCommit reports that a writer has copied a CommitEnd frame, and with
// it everything of that stream, out of the queue.
func (e *Engine) ackCommit() {
	select {
	case e.commitAck <- struct{}{}:
	case <-e.fatalCh:
	}
}

// --- mp.Endpoint --------------------------------------------------------

// Rank implements mp.Endpoint and core.DistEngine.
func (e *Engine) Rank() int { return e.rank }

// Procs implements mp.Endpoint.
func (e *Engine) Procs() int { return e.nodes }

// Nodes implements core.DistEngine.
func (e *Engine) Nodes() int { return e.nodes }

// Endpoint implements core.DistEngine.
func (e *Engine) Endpoint() mp.Endpoint { return e }

// Send implements mp.Endpoint: marshal the typed payload to native-order
// bytes and queue it (self-sends skip the wire). The mp API is
// panic-on-failure, so transport death surfaces as core.AbortError.
func (e *Engine) Send(dst, tag int, payload any, bytes int) {
	data, isNil := mp.MarshalPayload(payload)
	if dst == e.rank {
		e.mail.put(mailMsg{src: e.rank, tag: tag, data: data, hasData: !isNil})
		return
	}
	if err := e.send(dst, wire.KindMsg, wire.EncodeMsg(int64(tag), data, !isNil)); err != nil {
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
	m, ok, timedOut := e.mail.recv(src, tag, e.opTimeout)
	if timedOut {
		panic(core.AbortError{Err: fmt.Errorf("dist: rank %d: recv (src=%d, tag=%d) timed out after %v",
			e.rank, src, tag, e.opTimeout)})
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

// --- core.DistEngine ----------------------------------------------------

// SetReadServer implements core.DistEngine. Each RunDist installs its
// own server (a closure over that run's state); on a reused engine the
// new installation replaces the old. The swap cannot race a peer's read
// of the previous job's data: fetches only happen inside open global
// phases, every phase open starts with a full allgather, and all ranks
// install their new server before entering the next run's first phase.
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
	if dst >= 0 && dst < len(e.peers) && e.peers[dst] != nil {
		return e.peers[dst].sendCodec
	}
	return wire.CodecRaw
}

// PeerCommitCodec implements core.DistEngine: the codec src's commit
// streams arrive in.
func (e *Engine) PeerCommitCodec(src int) wire.Codec {
	if src >= 0 && src < len(e.peers) && e.peers[src] != nil {
		return e.peers[src].recvCodec
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
	if err := e.send(owner, wire.KindReadReq, wire.EncodeReadReq(id, ranges)); err != nil {
		drop()
		return nil, err
	}
	e.wsReadReqs.Add(1)
	var timeoutCh <-chan time.Time
	if e.opTimeout > 0 {
		if w.tm == nil {
			w.tm = time.NewTimer(e.opTimeout)
		} else {
			w.tm.Reset(e.opTimeout)
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
		err = fmt.Errorf("dist: rank %d: %s timed out after %v", e.rank, op, e.opTimeout)
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
	if e.faults != nil {
		e.faults.SetPhase(phase)
		if e.faults.KillNow(phase) {
			fmt.Fprintf(os.Stderr, "ppm-node[%d]: fault injection: killing rank at commit of phase %d\n", e.rank, phase)
			os.Exit(faultinject.KillExitCode)
		}
		for _, victim := range e.faults.SeverNow(phase) {
			for _, p := range e.peers {
				if p != nil && (victim == -1 || p.id == victim) {
					p.conn.Close()
				}
			}
		}
	}
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
	in, err := e.commit.wait(seq, phase, e.rank, e.opTimeout)
	if errors.Is(err, errCommitPlaneDead) {
		return nil, e.fatalErr()
	}
	return in, err
}

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
	for _, p := range e.peers {
		if p == nil {
			continue
		}
		p.tryEnqueue(outFrame{kind: wire.KindAbort, payload: payload})
	}
	e.setFatal(err)
}

// StartJobDeadline arms a whole-job wall-clock deadline: if it expires
// before the returned cancel function runs, the engine aborts the fleet
// with an error naming this rank, the deadline, and the mesh operation
// in flight (the same curOp attribution the failure detector uses), so
// a wedged or overlong job tears down with a diagnosis instead of
// hanging until an operator kills it. d <= 0 arms nothing.
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
// wait for every peer's own announcement, then close the links and join
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
	if e.hbStop != nil {
		close(e.hbStop) // no probes (or false deaths) during the bye exchange
		e.hbWg.Wait()
	}
	nPeers := 0
	for _, p := range e.peers {
		if p == nil {
			continue
		}
		nPeers++
		p.out <- outFrame{kind: wire.KindBye} // writers drain until the stop sentinel, so this cannot block
		p.out <- outFrame{kind: kindStop}
	}
	e.sendWg.Wait() // writers drain their queues and flush
	timeout := time.After(e.drainTimeout)
byes:
	for got := 0; got < nPeers; got++ {
		select {
		case <-e.byeCh:
		case <-e.fatalCh:
			break byes // mesh already failed; nothing more to wait for
		case <-timeout:
			break byes
		}
	}
	close(e.done)
	if e.ln != nil {
		e.ln.Close()
	}
	for _, p := range e.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	e.setFatal(fmt.Errorf("dist: rank %d: engine closed", e.rank))
	e.wg.Wait()
	return nil
}

// --- mailbox ------------------------------------------------------------

type mailMsg struct {
	src, tag int
	data     []byte
	hasData  bool
}

// mailbox holds undelivered node-level messages in arrival order; recv
// matches exactly like the simulator's (first arrival satisfying the
// src/tag pattern, wildcards allowed), so per-(src, tag) streams are
// non-overtaking over TCP just as they are in the simulator.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []mailMsg
	dead bool
	// timers recycles the deadline timers of receives that had to block
	// (several may, concurrently); each only wakes cond's waiters.
	timers sync.Pool
}

func (mb *mailbox) init() { mb.cond = sync.NewCond(&mb.mu) }

func (mb *mailbox) put(m mailMsg) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// wakeAt arms tm (nil: a new timer) to wake every waiter on cond, which
// mu guards, after d. The timer carries no verdict: a waiter it wakes
// compares the clock with its own deadline, so one that fires late, for a
// wait that is already over, costs a spurious wake-up and nothing else —
// which is what lets the timer be reused without draining it.
func wakeAt(tm *time.Timer, d time.Duration, mu *sync.Mutex, cond *sync.Cond) *time.Timer {
	if tm != nil {
		tm.Reset(d)
		return tm
	}
	return time.AfterFunc(d, func() {
		mu.Lock() // a waiter is either before its deadline check or inside Wait
		mu.Unlock()
		cond.Broadcast()
	})
}

// recv blocks until a matching message arrives, the mailbox dies, or the
// timeout expires (0 disables it, matching the other op deadlines). The
// deadline is per call, and armed only by a call that has to block: a
// message that is already queued costs no timer.
func (mb *mailbox) recv(src, tag int, timeout time.Duration) (mailMsg, bool, bool) {
	var tm *time.Timer
	var deadline time.Time
	mb.mu.Lock()
	defer func() {
		mb.mu.Unlock()
		if tm != nil {
			tm.Stop()
			mb.timers.Put(tm)
		}
	}()
	for {
		for i := range mb.q {
			m := mb.q[i]
			if (src == cluster.AnySource || src == m.src) && (tag == cluster.AnyTag || tag == m.tag) {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m, true, false
			}
		}
		if mb.dead {
			return mailMsg{}, false, false
		}
		if timeout > 0 {
			if tm == nil {
				deadline = time.Now().Add(timeout)
				tm, _ = mb.timers.Get().(*time.Timer)
				tm = wakeAt(tm, timeout, &mb.mu, mb.cond)
			} else if !time.Now().Before(deadline) {
				return mailMsg{}, false, true
			}
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) kill() {
	mb.mu.Lock()
	mb.dead = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// --- commit plane -------------------------------------------------------

// errCommitPlaneDead wakes a commit wait whose mesh died; CommitExchange
// replaces it with the engine's actual fatal error so the report names
// the dead rank and operation, not just "a peer was lost".
var errCommitPlaneDead = errors.New("dist: commit plane killed")

// commitPlane assembles peers' phase-commit delta streams, each peer's
// reader appending its chunks where they belong. Exchanges are keyed by
// their ordinal on the mesh (wire.CommitHeader.Seq), so a fast peer's
// next-exchange chunks can arrive before this node finishes waiting on
// the current one, and a frame that arrives after its exchange completed
// is recognized as such even when the next job reuses the phase number.
type commitPlane struct {
	mu    sync.Mutex
	cond  *sync.Cond
	nodes int
	open  map[int64]*commitBuf
	// completed is the ordinal of the last exchange wait handed out:
	// frames at or below it are late repeats, and nothing legitimate is
	// more than two ahead of it (a peer cannot finish an exchange without
	// this rank's stream for it).
	completed int64
	// lent is the buffer whose streams the last wait handed out, until
	// release; pool holds the ones between uses. A lent buffer that is
	// never released is simply left to the collector.
	lent *commitBuf
	pool sync.Pool
	tm   *time.Timer // the one wait deadline timer, see wakeAt
	dead bool
}

// commitBuf is one exchange's incoming streams. It is recycled whole:
// data[src] keeps its capacity from one exchange to the next.
type commitBuf struct {
	phase int64
	data  [][]byte
	done  []bool
	nDone int
}

func (cp *commitPlane) init(nodes int) {
	cp.cond = sync.NewCond(&cp.mu)
	cp.nodes = nodes
	cp.open = make(map[int64]*commitBuf)
}

// next returns the ordinal of the exchange about to start.
func (cp *commitPlane) next() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.completed + 1
}

// buf returns the buffer of exchange seq, which every rank must be
// running as the same phase. Call with mu held.
func (cp *commitPlane) buf(seq, phase int64) (*commitBuf, error) {
	b := cp.open[seq]
	if b == nil {
		b, _ = cp.pool.Get().(*commitBuf)
		if b == nil {
			b = &commitBuf{data: make([][]byte, cp.nodes), done: make([]bool, cp.nodes)}
		}
		b.phase = phase
		cp.open[seq] = b
	}
	if b.phase != phase {
		return nil, fmt.Errorf("commit exchange %d is phase %d to one rank and phase %d to another: the ranks are out of step", seq, b.phase, phase)
	}
	return b, nil
}

// frameBuf returns the buffer a commit frame from src belongs to, or nil
// for a frame that arrived after its exchange completed (a duplicate:
// ignore it); an ordinal no peer can have reached is an error. Call with
// mu held.
func (cp *commitPlane) frameBuf(src int, h wire.CommitHeader) (*commitBuf, error) {
	if h.Seq <= cp.completed {
		return nil, nil
	}
	if h.Seq > cp.completed+2 {
		return nil, fmt.Errorf("rank %d sent a commit frame of phase %d as exchange %d while this rank has completed %d", src, h.Phase, h.Seq, cp.completed)
	}
	return cp.buf(h.Seq, h.Phase)
}

// reserve places a chunk of n bytes at h.Off of src's stream and returns
// where the reader is to put it; nil means drop it (a repeat). The first
// chunk sizes the stream for its announced total. Only src's reader
// appends to the stream, and the waiter does not see it before src's end,
// so the reader fills the reservation without the lock.
func (cp *commitPlane) reserve(src int, h wire.CommitHeader, n int) ([]byte, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, err := cp.frameBuf(src, h)
	if b == nil {
		return nil, err
	}
	s := b.data[src]
	switch {
	case b.done[src]:
		return nil, fmt.Errorf("rank %d sent %d more bytes of its phase %d commit stream after ending it at %d", src, n, h.Phase, len(s))
	case h.Off+n <= len(s):
		return nil, nil // lies wholly inside what is already here: a repeat
	case h.Off != len(s):
		return nil, fmt.Errorf("rank %d's phase %d commit stream continues at offset %d with %d bytes received: a frame was lost or cut", src, h.Phase, h.Off, len(s))
	case h.Off+n > h.Total:
		return nil, fmt.Errorf("rank %d's phase %d commit stream overruns its announced %d bytes by %d", src, h.Phase, h.Total, h.Off+n-h.Total)
	}
	if cap(s) < h.Total {
		s = append(make([]byte, 0, h.Total), s...)
	}
	s = s[:h.Off+n]
	b.data[src] = s
	return s[h.Off:], nil
}

// end marks src's stream complete at h.Total bytes.
func (cp *commitPlane) end(src int, h wire.CommitHeader) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, err := cp.frameBuf(src, h)
	if b == nil {
		return err
	}
	if got := len(b.data[src]); got != h.Total {
		return fmt.Errorf("rank %d ended its phase %d commit stream at %d bytes with %d received: a frame was lost or cut", src, h.Phase, h.Total, got)
	}
	if !b.done[src] {
		b.done[src] = true
		b.nDone++
		cp.cond.Broadcast()
	}
	return nil
}

// wait blocks until every peer's stream of exchange seq is complete and
// returns them indexed by source, lent until release. The deadline timer
// is armed only if the streams are not all here yet.
func (cp *commitPlane) wait(seq, phase int64, self int, timeout time.Duration) ([][]byte, error) {
	var deadline time.Time
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for {
		b, err := cp.buf(seq, phase)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d: %w", self, err)
		}
		if b.nDone == cp.nodes-1 {
			delete(cp.open, seq)
			cp.completed = seq
			cp.lent = b
			if !deadline.IsZero() {
				cp.tm.Stop()
			}
			return b.data, nil
		}
		if cp.dead {
			// The engine's fatal error (a heartbeat verdict, an EOF, a
			// peer abort) is the real diagnosis; the caller substitutes
			// it for this sentinel.
			return nil, errCommitPlaneDead
		}
		if timeout > 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(timeout)
				cp.tm = wakeAt(cp.tm, timeout, &cp.mu, cp.cond)
			} else if !time.Now().Before(deadline) {
				var missing []int
				for n := 0; n < cp.nodes; n++ {
					if n != self && !b.done[n] {
						missing = append(missing, n)
					}
				}
				return nil, fmt.Errorf("dist: rank %d: commit of phase %d timed out after %v waiting for rank(s) %v",
					self, phase, timeout, missing)
			}
		}
		cp.cond.Wait()
	}
}

// release takes back the streams the last wait handed out.
func (cp *commitPlane) release(in [][]byte) {
	cp.mu.Lock()
	b := cp.lent
	if b == nil || len(in) == 0 || &in[0] != &b.data[0] {
		cp.mu.Unlock()
		return
	}
	cp.lent = nil
	cp.mu.Unlock()
	for src := range b.data {
		b.data[src] = b.data[src][:0]
		b.done[src] = false
	}
	b.nDone = 0
	cp.pool.Put(b)
}

func (cp *commitPlane) kill() {
	cp.mu.Lock()
	cp.dead = true
	cp.mu.Unlock()
	cp.cond.Broadcast()
}
