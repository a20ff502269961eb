package cluster

import "ppm/internal/vtime"

// This file implements the conservative parallel scheduler selected by
// Config.Parallel (or PPM_PARALLEL=1).
//
// # Protocol
//
// The sequential scheduler interleaves processes so that exactly one
// runs at a time: a process runs from the point it is resumed until it
// blocks, performing all of its operations on shared simulator state
// (sends, receives, barrier entries, NIC acquisitions) inside that
// span. The parallel scheduler keeps that span — the "turn" — as the
// unit of serialization but lets every runnable process execute its
// pure compute sections concurrently:
//
//   - All processes are resumed at start and whenever they become
//     runnable (message wake, barrier release). They compute ahead
//     freely: Charge/AdvanceTo and all application arithmetic touch
//     only process-local state.
//   - The first operation that touches shared state parks the process
//     (parkReq -> turnCh) until the scheduler grants it the turn.
//   - The scheduler grants turns in exactly the sequential order: the
//     runnable process with the smallest (pickClock, rank), where
//     pickClock is the virtual clock at which the process last became
//     runnable. This equals the clock the sequential scheduler would
//     compare, because a sequential process never advances its clock
//     while runnable-but-not-running.
//   - A granted process keeps the turn across consecutive operations
//     (exactly like an uninterrupted sequential span) and releases it
//     when it blocks, yields, or exits.
//
// # Safe horizon / determinism argument
//
// This is conservative parallel discrete-event simulation with the
// strongest possible lookahead: because the total mutation order is
// fixed in advance (it is the sequential turn order), no event is ever
// executed speculatively and no rollback is needed. The "safe horizon"
// for a process is its own next shared-state operation: everything
// before it is process-local and may run at any host time; everything
// from it on waits for the turn. Compute-ahead cannot observe a stale
// value because, by construction of the simulator's layers, compute
// sections read no shared mutable state: cluster-level shared state is
// only reachable through operations (which park), and PPM phase
// semantics make shared arrays read-only between the barrier that opens
// a phase window and the barrier that closes it. Consequently the
// sequence of operations, their arguments, and their interleaving are
// identical to the sequential schedule, and reports, observer streams,
// and committed state are bit-identical. Failure paths (panics mid-run,
// teardown) do not carry this guarantee: event streams of failed runs
// may differ between modes.
//
// All cross-goroutine visibility is induced by channel operations: a
// compute-ahead section is bounded by a resume/turn-grant receive at
// the start and a parkReq/yield send at the end, so every shared-state
// access is ordered by happens-before edges through the scheduler.

// scheduleParallel is the parallel counterpart of schedule, run on the
// caller's goroutine.
func (c *Cluster) scheduleParallel() error {
	// Launch every process; each computes ahead until its first
	// operation parks it. Every process starts runnable at clock 0, so
	// the grant heap is seeded with all of them.
	for _, p := range c.procs {
		c.noteRunnable(p)
		p.resume <- true
	}
	for {
		if c.failure != nil {
			c.teardownParallel()
			return c.failure
		}
		cur := c.pickTurn()
		if cur == nil {
			if c.allDone() {
				return c.failure
			}
			err := c.deadlockError()
			c.failure = err
			c.teardownParallel()
			return err
		}
		// Wait for cur to reach its next operation (it may still be
		// computing ahead); meanwhile record other processes parking.
		for !cur.parked {
			p := <-c.parkReq
			p.parked = true
		}
		cur.parked = false
		cur.state = stateRunning
		cur.turnCh <- true
		// The turn ends when cur blocks, yields, or exits; park
		// requests from other processes keep arriving meanwhile.
		for {
			stop := false
			select {
			case p := <-c.parkReq:
				p.parked = true
			case <-c.yield:
				stop = true
			}
			if stop {
				break
			}
		}
	}
}

// turnEnt is one pending grant key in the turn heap: the (pickClock,
// rank) a process became runnable with. Entries are never updated in
// place; a process that becomes runnable again simply pushes a new
// entry, and entries whose process is no longer runnable at that exact
// key are dropped lazily at pop time.
type turnEnt struct {
	clock vtime.Time
	rank  int
}

func (e turnEnt) less(o turnEnt) bool {
	return e.clock < o.clock || (e.clock == o.clock && e.rank < o.rank)
}

// noteRunnable registers p's runnable transition in the turn heap.
// Every site that sets state = stateRunnable under the parallel
// scheduler calls it (start seed, message wake, barrier release,
// Yield); sequential runs keep the heap empty. Duplicate entries for
// the same (clock, rank) are harmless: the first grants, the rest are
// dropped as stale because the process is no longer runnable — or, if
// it became runnable again at the same key, granting on the duplicate
// is exactly what the scan would have picked anyway.
func (c *Cluster) noteRunnable(p *Proc) {
	if !c.parallel {
		return
	}
	h := append(c.turnHeap, turnEnt{clock: p.pickClock, rank: p.rank})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	c.turnHeap = h
}

// popTurn removes the minimum heap entry.
func (c *Cluster) popTurn() {
	h := c.turnHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].less(h[small]) {
			small = l
		}
		if r < n && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	c.turnHeap = h
}

// pickTurn returns the runnable process with the smallest
// (pickClock, rank), or nil if none are runnable. It may only be
// called between turns, when every pickClock it reads was published by
// a channel operation.
//
// The heap makes a grant O(log P) instead of the old O(P) scan (kept
// below as pickTurnScan, the oracle for the equivalence unit test). An
// entry is live iff its process is still runnable at exactly the
// recorded (clock, rank) key; anything else is a leftover from a
// transition that was since consumed — granted, re-blocked, completed
// a barrier by its own arrival, or exited — and is discarded. Because
// every runnable process has a live entry (noteRunnable runs at every
// runnable transition, and pickClock is frozen while runnable), an
// empty heap means no process is runnable.
func (c *Cluster) pickTurn() *Proc {
	for len(c.turnHeap) > 0 {
		top := c.turnHeap[0]
		c.popTurn()
		p := c.procs[top.rank]
		if p.state == stateRunnable && p.pickClock == top.clock {
			return p
		}
	}
	return nil
}

// pickTurnScan is the original O(P) grant scan, retained as the test
// oracle for pickTurn.
func (c *Cluster) pickTurnScan() *Proc {
	var best *Proc
	for _, p := range c.procs {
		if p.state != stateRunnable {
			continue
		}
		if best == nil || p.pickClock < best.pickClock ||
			(p.pickClock == best.pickClock && p.rank < best.rank) {
			best = p
		}
	}
	return best
}

// teardownParallel unwinds every live process goroutine after a
// failure: parked processes get a false turn grant, blocked processes a
// false resume, and processes still computing ahead abort at their next
// operation. It returns once every process has sent its final yield.
func (c *Cluster) teardownParallel() {
	remaining := 0
	for _, p := range c.procs {
		switch {
		case p.state == stateDone:
		case p.parked:
			p.parked = false
			p.turnCh <- false
			remaining++
		case p.state == stateBlockedRecv || p.state == stateBlockedBarrier:
			p.resume <- false
			remaining++
		default:
			// Still computing ahead; it will park at its next
			// operation (every process exits through one) and be
			// aborted then.
			remaining++
		}
	}
	for remaining > 0 {
		select {
		case p := <-c.parkReq:
			p.turnCh <- false
		case q := <-c.yield:
			if q.state == stateDone {
				remaining--
			}
		}
	}
}
