package dist

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ppm/internal/faultinject"
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
	// links (default 10s).
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

// Connect establishes the full mesh: listen, publish/learn addresses,
// dial every lower rank and accept every higher one (the ordering makes
// sequential establishment deadlock-free), handshake each link, and
// start the links, the heartbeat and the read server.
func Connect(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		rank:        cfg.Rank,
		nodes:       cfg.Nodes,
		cfg:         cfg,
		hbStop:      make(chan struct{}),
		links:       make([]*link, cfg.Nodes),
		pend:        make(map[uint64]*fetchWait),
		serveCh:     make(chan serveReq, 1024),
		serverReady: make(chan struct{}),
		commitAck:   make(chan struct{}, cfg.Nodes-1), // one token per peer for the one exchange in flight
		byeCh:       make(chan int, cfg.Nodes),
		fatalCh:     make(chan struct{}),
	}
	e.mail.init()
	e.commit.init(cfg.Nodes)
	if cfg.Nodes > 1 {
		if err := e.connect(cfg); err != nil {
			return nil, err
		}
		for _, l := range e.links {
			if l != nil {
				l.start(e)
			}
		}
		if e.cfg.HeartbeatInterval > 0 && e.cfg.HeartbeatTimeout > 0 {
			e.hbWg.Add(1)
			go e.heartbeatLoop()
		}
	}
	e.wg.Add(1)
	go e.serveLoop()
	return e, nil
}

// connect listens, learns every rank's address and handshakes a link
// with each. The listener closes once the mesh is formed; on error the
// links close too.
func (e *Engine) connect(cfg Config) (err error) {
	deadline := time.Now().Add(cfg.ConnectTimeout)
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("dist: rank %d listen: %w", cfg.Rank, err)
	}
	defer ln.Close()
	defer func() {
		if err != nil {
			for _, l := range e.links {
				if l != nil {
					l.sever()
				}
			}
		}
	}()
	addrs, err := rendezvous(cfg.RendezvousDir, cfg.RunID, cfg.Rank, cfg.Nodes, ln.Addr().String(), deadline)
	if err != nil {
		return err
	}
	// Dial every lower rank (they are already accepting: rank 0 dials
	// nobody, and by induction rank j < rank finished its dials first).
	for j := 0; j < cfg.Rank; j++ {
		if e.links[j], err = dialPeer(addrs[j], cfg.Rank, j, cfg.Nodes, deadline, cfg.Codec); err != nil {
			return err
		}
	}
	// Accept every higher rank.
	ln.(*net.TCPListener).SetDeadline(deadline)
	for n := cfg.Rank + 1; n < cfg.Nodes; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: rank %d accept: %w", cfg.Rank, err)
		}
		l, err := handshake(conn, false, cfg.Rank, cfg.Nodes, deadline, cfg.Codec)
		if err == nil && e.links[l.id] != nil {
			err = fmt.Errorf("duplicate connection from rank %d", l.id)
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("dist: rank %d accept handshake: %w", cfg.Rank, err)
		}
		e.links[l.id] = l
	}
	return nil
}

// rendezvous publishes this rank's address in dir and polls until every
// rank's file is present. Address files carry the launch's run-id on
// their first line; files tagged with a different run-id are leftovers
// from a previous launch and are ignored, so a retried launch can reuse
// the directory without dialing dead addresses. An empty run-id accepts
// anything (hand-started fleets).
func rendezvous(dir, runID string, rank, nodes int, addr string, deadline time.Time) ([]string, error) {
	tmp := filepath.Join(dir, fmt.Sprintf(".node-%d.addr.tmp", rank))
	err := os.WriteFile(tmp, []byte(runID+"\n"+addr), 0o644)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("node-%d.addr", rank)))
	}
	if err != nil {
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

// readAddrFile loads one rendezvous file, "<run-id>\n<address>",
// rejecting a file published by a different launch (stale run-id).
func readAddrFile(path, runID string) (string, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	id, addr, ok := strings.Cut(string(b), "\n")
	if !ok || addr == "" || (runID != "" && id != runID) {
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
		b.wait = min(2*b.wait, time.Second)
	}
	return d
}

// dialPeer dials rank target, retrying with backoff until deadline, and
// handshakes.
func dialPeer(addr string, self, target, nodes int, deadline time.Time, prefer wire.Codec) (*link, error) {
	bo := newBackoff(uint64(self)<<16 | uint64(target))
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			l, err := handshake(conn, true, self, nodes, deadline, prefer)
			if err == nil && l.id != target {
				err = fmt.Errorf("reached rank %d", l.id)
			}
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("dist: rank %d handshake with rank %d: %w", self, target, err)
			}
			return l, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: rank %d dial rank %d (%s): %w", self, target, addr, err)
		}
		time.Sleep(bo.next())
	}
}

// handshake exchanges Hellos over a new connection, the dialer's first,
// and builds the link they describe. The acceptor answers only a rank
// above its own, which is who dials it.
func handshake(conn net.Conn, dialer bool, self, nodes int, deadline time.Time, prefer wire.Codec) (*link, error) {
	conn.SetDeadline(deadline)
	send, want := wire.KindHelloAck, wire.KindHello
	if dialer {
		send, want = want, send
	}
	hello := wire.AppendFrame(nil, send, wire.EncodeHello(wire.Hello{Rank: self, Nodes: nodes,
		LittleEndian: wire.NativeLittleEndian(), Caps: wire.SupportedCaps, Prefer: prefer}))
	if dialer {
		if _, err := conn.Write(hello); err != nil {
			return nil, err
		}
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	kind, payload, err := wire.ReadFrame(br)
	if err == nil && kind != want {
		err = fmt.Errorf("got frame kind %d, want %d", kind, want)
	}
	var h wire.Hello
	if err == nil {
		h, err = wire.DecodeHello(payload, nodes)
	}
	if err == nil && !dialer {
		if h.Rank <= self {
			return nil, fmt.Errorf("unexpected rank %d", h.Rank)
		}
		_, err = conn.Write(hello)
	}
	if err != nil {
		return nil, err
	}
	return newLink(h.Rank, conn, br, prefer, h), nil
}
