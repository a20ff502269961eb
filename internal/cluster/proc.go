package cluster

import (
	"fmt"

	"ppm/internal/machine"
	"ppm/internal/vtime"
)

// ProcStats accumulates per-process accounting over a run.
type ProcStats struct {
	MsgsSent      int64
	MsgsRecvd     int64
	BytesSent     int64
	BytesRecvd    int64
	IntraMsgsSent int64 // subset of MsgsSent that stayed on-node
	Barriers      int64
	ComputeTime   vtime.Duration // total explicitly charged compute
}

// Proc is one simulated SPMD process (rank). All methods must be called
// from the process's own goroutine, i.e. from inside the Program.
//
// Synchronization note: the scheduler and process goroutines hand a
// single execution turn back and forth over the resume/yield channels;
// every access to shared cluster state happens while holding the turn, so
// the accesses are ordered by the channel operations and no locks are
// needed. Under Config.Parallel the turn still exists and still moves in
// the same order; processes merely compute ahead between operations (see
// parallel.go for the full protocol and determinism argument).
type Proc struct {
	cluster *Cluster
	rank    int
	node    int

	clock  vtime.Time
	state  procState
	resume chan bool

	// Parallel-mode fields (see parallel.go). turnCh delivers turn
	// grants to a process parked at an operation; hasTurn is owned by
	// the process goroutine; pickClock is the clock at which the
	// process last became runnable — exactly the frozen clock the
	// sequential scheduler would compare, since a sequential process
	// never advances its clock while runnable-but-not-running. parked
	// is owned by the scheduler and tracks whether the process waits
	// between parkReq and its turn grant.
	turnCh    chan bool
	hasTurn   bool
	pickClock vtime.Time
	parked    bool

	mailbox []*Message
	wantSrc int
	wantTag int

	stats ProcStats
}

// acquireTurn blocks until this process holds the serialization turn.
// Mutating (or order-sensitively reading) any state outside the
// process's own fields requires the turn; the process then keeps it
// until it blocks, yields, or exits. In sequential mode holding the
// turn is implicit in having been resumed, so this is a no-op.
func (p *Proc) acquireTurn() {
	if !p.cluster.parallel || p.hasTurn {
		return
	}
	p.cluster.parkReq <- p
	if !<-p.turnCh {
		panic(abortSignal{})
	}
	p.hasTurn = true
}

// acquireTurnExit is acquireTurn for the exit path: instead of
// panicking when the run is being torn down it reports false, so the
// deferred exit handler can finish without touching shared state.
func (p *Proc) acquireTurnExit() bool {
	if !p.cluster.parallel || p.hasTurn {
		return true
	}
	p.cluster.parkReq <- p
	if !<-p.turnCh {
		return false
	}
	p.hasTurn = true
	return true
}

// Serial runs f while holding the serialization turn, then keeps the
// turn (it is released at the process's next block or yield, like any
// other operation). Runtime layers use it to fence sections that touch
// cross-process host state outside the message-passing API — e.g.
// collective registration or shared diagnostic logs — so the sections
// execute in exactly the order the sequential scheduler would run them.
// In sequential mode it simply calls f.
func (p *Proc) Serial(f func()) {
	p.acquireTurn()
	f()
}

// run is the goroutine body wrapping the user program.
func (p *Proc) run(prog Program) {
	defer func() {
		r := recover()
		_, aborted := r.(abortSignal)
		if aborted {
			r = nil
		}
		// Exiting mutates shared state (the observer stream, barrier
		// bookkeeping, the failure slot), so under the parallel
		// scheduler it waits for this process's sequential turn. A
		// false grant means the run is being torn down: finish without
		// touching shared state.
		if !aborted && !p.acquireTurnExit() {
			aborted = true
		}
		if aborted && p.cluster.parallel {
			p.state = stateDone
			p.cluster.yield <- p
			return
		}
		if r != nil && p.cluster.failure == nil {
			p.cluster.failure = fmt.Errorf("cluster: rank %d panicked: %v", p.rank, r)
		}
		p.state = stateDone
		p.cluster.observe(Event{Kind: EvExit, Rank: p.rank, Peer: -1, Time: p.clock})
		// A finished process no longer participates in barriers; waiters
		// must not hang on it.
		p.cluster.tryBarrierRelease(p)
		p.hasTurn = false
		p.cluster.yield <- p
	}()
	// First resume: the scheduler hands us the turn without a prior yield
	// from us. (In parallel mode every process is resumed at start and
	// acquires the turn lazily at its first operation.)
	if cont := <-p.resume; !cont {
		panic(abortSignal{})
	}
	prog(p)
}

// yieldBlocked parks the process in the given blocked state until the
// scheduler (or, in parallel mode, the process that unblocks it) makes
// it runnable again and resumes it. In parallel mode the process
// resumes computing without the turn and reacquires it at its next
// operation.
func (p *Proc) yieldBlocked(s procState) {
	p.state = s
	p.hasTurn = false
	p.cluster.yield <- p
	if cont := <-p.resume; !cont {
		panic(abortSignal{})
	}
}

// Rank returns this process's rank in [0, Procs).
func (p *Proc) Rank() int { return p.rank }

// Procs returns the total number of processes in the run.
func (p *Proc) Procs() int { return len(p.cluster.procs) }

// Node returns the physical node index this process is placed on.
func (p *Proc) Node() int { return p.node }

// Nodes returns the number of physical nodes in the run.
func (p *Proc) Nodes() int { return len(p.cluster.nics) }

// NodeRank returns this process's index among the processes on its node.
func (p *Proc) NodeRank() int { return p.rank % p.cluster.cfg.ProcsPerNode }

// ProcsPerNode returns the configured number of processes per node.
func (p *Proc) ProcsPerNode() int { return p.cluster.cfg.ProcsPerNode }

// Machine returns the cost model in effect.
func (p *Proc) Machine() *machine.Machine { return p.cluster.mach }

// Clock returns this process's current virtual time.
func (p *Proc) Clock() vtime.Time { return p.clock }

// Charge advances this process's clock by d of modeled computation.
func (p *Proc) Charge(d vtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("cluster: rank %d charged negative duration %v", p.rank, d))
	}
	p.clock = p.clock.Add(d)
	p.stats.ComputeTime += d
}

// ChargeFlops advances the clock by the modeled time of n flops on one
// core.
func (p *Proc) ChargeFlops(n int64) { p.Charge(p.cluster.mach.FlopTime(n)) }

// ChargeMem advances the clock by the modeled time of streaming n bytes
// through one core.
func (p *Proc) ChargeMem(n int64) { p.Charge(p.cluster.mach.MemTime(n)) }

// AdvanceTo moves the clock forward to t if t is later. Used by runtime
// layers that compute event times themselves (e.g. the PPM bundler).
func (p *Proc) AdvanceTo(t vtime.Time) {
	if t.After(p.clock) {
		p.clock = t
	}
}

// NICAcquire occupies this process's node NIC for d starting no earlier
// than at, returning the completion time. Runtime layers use it to model
// bundled traffic without materializing messages. The NIC is shared by
// every process on the node, so acquisition order is part of the
// deterministic schedule and requires the turn.
func (p *Proc) NICAcquire(at vtime.Time, d vtime.Duration) vtime.Time {
	p.acquireTurn()
	return p.cluster.nics[p.node].Acquire(at, d)
}

// NICFreeAt returns the earliest idle time of this node's NIC.
func (p *Proc) NICFreeAt() vtime.Time {
	p.acquireTurn()
	return p.cluster.nics[p.node].FreeAt()
}

// CountTraffic records modeled traffic in the statistics without
// performing a send; runtime layers use it alongside NICAcquire.
func (p *Proc) CountTraffic(msgs, bytes int64, intra bool) {
	p.stats.MsgsSent += msgs
	p.stats.BytesSent += bytes
	if intra {
		p.stats.IntraMsgsSent += msgs
	}
}

// Stats returns a copy of this process's accumulated statistics.
func (p *Proc) Stats() ProcStats { return p.stats }

// Send delivers a message to rank dst with the given tag. The payload is
// passed by reference (no serialization); bytes is the modeled size used
// for cost accounting. Sends are eager and never block: the sender pays
// its per-message overhead and NIC occupancy, and the message becomes
// available at the destination at the modeled arrival time.
func (p *Proc) Send(dst, tag int, payload any, bytes int) {
	if dst < 0 || dst >= len(p.cluster.procs) {
		panic(fmt.Sprintf("cluster: rank %d Send to invalid rank %d", p.rank, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("cluster: rank %d Send with negative bytes %d", p.rank, bytes))
	}
	p.acquireTurn()
	c := p.cluster
	m := c.mach
	target := c.procs[dst]
	var arrival vtime.Time
	intra := target.node == p.node
	if intra {
		p.clock = p.clock.Add(m.IntraSendOverhead())
		arrival = p.clock.Add(vtime.Duration(m.IntraLatency)).Add(m.IntraCopyTime(bytes))
	} else {
		p.clock = p.clock.Add(vtime.Duration(m.SendOverhead))
		nicDone := c.nics[p.node].Acquire(p.clock, m.WireTime(bytes))
		arrival = nicDone.Add(vtime.Duration(m.NetLatency))
	}
	c.sendSeq++
	msg := &Message{
		Src:     p.rank,
		Tag:     tag,
		Payload: payload,
		Bytes:   bytes,
		Arrival: arrival,
		seq:     c.sendSeq,
	}
	target.mailbox = append(target.mailbox, msg)
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(bytes)
	if intra {
		p.stats.IntraMsgsSent++
	}
	c.observe(Event{Kind: EvSend, Rank: p.rank, Peer: dst, Tag: tag, Bytes: bytes, Intra: intra, Time: p.clock})
	// If the destination is parked on a matching receive, wake it. Its
	// pick clock is the clock it blocked at (unchanged while blocked),
	// which is what the sequential scheduler would compare.
	if target.state == stateBlockedRecv && matches(target.wantSrc, target.wantTag, msg) {
		target.state = stateRunnable
		target.pickClock = target.clock
		c.noteRunnable(target)
		if c.parallel {
			target.resume <- true
		}
	}
}

func matches(wantSrc, wantTag int, m *Message) bool {
	return (wantSrc == AnySource || wantSrc == m.Src) &&
		(wantTag == AnyTag || wantTag == m.Tag)
}

// Recv blocks until a message matching (src, tag) is available and
// returns it. src may be AnySource and tag may be AnyTag. Messages from
// the same source with the same tag are received in send order
// (non-overtaking); wildcard receives match in global send order, which
// keeps runs deterministic.
func (p *Proc) Recv(src, tag int) *Message {
	for {
		p.acquireTurn()
		if msg := p.consumeMatch(src, tag); msg != nil {
			return msg
		}
		p.wantSrc, p.wantTag = src, tag
		p.yieldBlocked(stateBlockedRecv)
	}
}

// TryRecv returns a matching message if one is already available, without
// blocking. It returns nil when none is queued.
func (p *Proc) TryRecv(src, tag int) *Message {
	p.acquireTurn()
	return p.consumeMatch(src, tag)
}

// consumeMatch removes the first queued message matching (src, tag) in
// global send order, charges receive costs, and returns it; nil if none.
func (p *Proc) consumeMatch(src, tag int) *Message {
	for i, msg := range p.mailbox {
		if !matches(src, tag, msg) {
			continue
		}
		p.mailbox = append(p.mailbox[:i], p.mailbox[i+1:]...)
		m := p.cluster.mach
		intra := p.cluster.procs[msg.Src].node == p.node
		p.clock = p.clock.Max(msg.Arrival)
		if intra {
			p.clock = p.clock.Add(m.IntraRecvOverhead())
		} else {
			p.clock = p.clock.Add(vtime.Duration(m.RecvOverhead))
		}
		p.stats.MsgsRecvd++
		p.stats.BytesRecvd += int64(msg.Bytes)
		p.cluster.observe(Event{Kind: EvRecv, Rank: p.rank, Peer: msg.Src, Tag: msg.Tag, Bytes: msg.Bytes, Intra: intra, Time: p.clock})
		return msg
	}
	return nil
}

// Barrier blocks until every live (not yet finished) process has entered
// the barrier. All participants leave with the same clock: the latest
// arrival plus the machine's modeled barrier cost. Processes that have
// already finished do not participate.
func (p *Proc) Barrier() {
	p.acquireTurn()
	c := p.cluster
	p.state = stateBlockedBarrier
	c.inBarrier++
	c.tryBarrierRelease(p)
	if p.state == stateRunnable {
		// Our own arrival completed the barrier; we keep the turn.
		p.state = stateRunning
		return
	}
	p.hasTurn = false
	c.yield <- p
	if cont := <-p.resume; !cont {
		panic(abortSignal{})
	}
}

// Yield voluntarily hands the turn back to the scheduler; the process
// remains runnable at its current clock. Useful in tests to force
// interleavings.
func (p *Proc) Yield() {
	if p.cluster.parallel {
		// Give up the turn but keep computing; the next operation
		// parks until the turn comes around again at this clock.
		p.acquireTurn()
		p.state = stateRunnable
		p.pickClock = p.clock
		p.cluster.noteRunnable(p)
		p.hasTurn = false
		p.cluster.yield <- p
		return
	}
	p.yieldBlocked(stateRunnable)
}
