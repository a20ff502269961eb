// Package cluster simulates a distributed-memory parallel machine: a set
// of SPMD processes (ranks) placed on multicore nodes, exchanging
// messages whose cost is charged against a machine model in virtual time.
//
// The simulator is a cooperative, deterministic scheduler. Exactly one
// process goroutine runs at any instant; the scheduler always resumes the
// runnable process with the smallest (virtual clock, rank). Because every
// state mutation happens while its process holds the single execution
// turn, the package needs no locks, and two runs of the same program
// produce bit-identical virtual times, message orders, and results.
//
// Processes run real Go code: all application arithmetic actually
// executes. Virtual time advances only through explicit Charge calls and
// through the modeled cost of communication, so simulated time measures
// the modeled machine rather than the host.
//
// This package is the stand-in for the paper's physical Cray XT4; see
// DESIGN.md section 2 for the substitution argument.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"ppm/internal/machine"
	"ppm/internal/vtime"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config describes the simulated machine shape for one run.
type Config struct {
	// Procs is the number of SPMD processes (ranks).
	Procs int
	// ProcsPerNode is how many ranks share each physical node. A
	// message-passing job typically places one rank per core; a PPM job
	// places one rank per node. Procs must be a multiple unless the last
	// node is allowed to be ragged (it is; the last node holds the
	// remainder).
	ProcsPerNode int
	// Machine is the cost model. If nil, machine.Franklin() is used.
	Machine *machine.Machine
	// Observer, if non-nil, receives structured events (sends, receives,
	// barrier releases, exits) in deterministic schedule order. Used by
	// the trace/timeline tooling.
	Observer func(Event)
	// Parallel selects the conservative parallel scheduler: process
	// compute sections execute concurrently on host cores while every
	// operation on shared simulator state is re-serialized in exactly
	// the order the sequential scheduler would run it, so reports,
	// observer streams, and all modeled results stay bit-identical.
	// See parallel.go. Setting PPM_PARALLEL=1 in the environment
	// forces this mode for every run (used by CI to exercise the whole
	// test suite under it).
	Parallel bool
}

func (c *Config) validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("cluster: Procs must be positive, got %d", c.Procs)
	}
	if c.ProcsPerNode <= 0 {
		return fmt.Errorf("cluster: ProcsPerNode must be positive, got %d", c.ProcsPerNode)
	}
	if c.Machine != nil {
		if err := c.Machine.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Program is the SPMD entry point: it is invoked once per rank, on that
// rank's goroutine, with that rank's Proc handle.
type Program func(p *Proc)

// procState enumerates the scheduler-visible states of a process.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlockedRecv
	stateBlockedBarrier
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateBlockedRecv:
		return "blocked-recv"
	case stateBlockedBarrier:
		return "blocked-barrier"
	case stateDone:
		return "done"
	default:
		return "invalid"
	}
}

// Message is a delivered point-to-point message.
type Message struct {
	Src     int
	Tag     int
	Payload any
	// Bytes is the modeled payload size used for cost accounting. It
	// need not equal any real in-memory size of Payload.
	Bytes int
	// Arrival is the virtual time the message became available at the
	// destination.
	Arrival vtime.Time

	seq int64 // global send order, for deterministic matching
}

// errAbort is panicked into process goroutines to unwind them when the
// run is being torn down after another process failed.
type abortSignal struct{}

// Cluster is the run state shared by the scheduler and all processes.
// Only the currently running process (or the scheduler, when no process
// is running) touches it, so it needs no locking.
type Cluster struct {
	cfg   Config
	mach  *machine.Machine
	procs []*Proc
	nics  []*vtime.Resource // one per node

	yield chan *Proc // processes announce they stopped running

	// Parallel-scheduler state: parkReq is where a process announces it
	// reached an operation and needs the turn (buffered so announcing
	// never blocks the scheduler's grant cycle). turnHeap is the grant
	// queue: one (pickClock, rank) entry per runnable-transition, popped
	// in key order with lazy invalidation (see pickTurn).
	parallel bool
	parkReq  chan *Proc
	turnHeap []turnEnt

	sendSeq    int64
	barrierGen int64
	inBarrier  int

	failure error // first process panic, if any
}

// Run executes prog as an SPMD program over the configured cluster and
// returns the run report. It returns an error for invalid configuration,
// deadlock, or a panic in any process (the panic value is wrapped).
func Run(cfg Config, prog Program) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mach := cfg.Machine
	if mach == nil {
		mach = machine.Franklin()
	}
	nodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	c := &Cluster{
		cfg:      cfg,
		mach:     mach,
		yield:    make(chan *Proc),
		parallel: cfg.Parallel || envParallel,
	}
	if c.parallel {
		c.parkReq = make(chan *Proc, cfg.Procs)
	}
	c.nics = make([]*vtime.Resource, nodes)
	for i := range c.nics {
		c.nics[i] = vtime.NewResource(fmt.Sprintf("nic-%d", i))
	}
	c.procs = make([]*Proc, cfg.Procs)
	for r := 0; r < cfg.Procs; r++ {
		c.procs[r] = &Proc{
			cluster: c,
			rank:    r,
			node:    r / cfg.ProcsPerNode,
			state:   stateRunnable,
			resume:  make(chan bool),
			turnCh:  make(chan bool),
		}
	}
	for _, p := range c.procs {
		go p.run(prog)
	}
	var err error
	if c.parallel {
		err = c.scheduleParallel()
	} else {
		err = c.schedule()
	}
	rep := c.report()
	return rep, err
}

// envParallel forces the parallel scheduler for every run in the
// process when PPM_PARALLEL=1, regardless of Config.Parallel. CI uses
// it to run the full test suite (including the race detector) under the
// parallel scheduler.
var envParallel = os.Getenv("PPM_PARALLEL") == "1"

// schedule is the main scheduling loop, run on the caller's goroutine.
func (c *Cluster) schedule() error {
	for {
		if c.failure != nil {
			c.teardown()
			return c.failure
		}
		p := c.pickRunnable()
		if p == nil {
			if c.allDone() {
				return c.failure
			}
			if c.failure != nil {
				c.teardown()
				return c.failure
			}
			err := c.deadlockError()
			c.failure = err
			c.teardown()
			return err
		}
		p.state = stateRunning
		p.resume <- true
		<-c.yield
	}
}

// pickRunnable returns the runnable process with the smallest
// (clock, rank), or nil if none are runnable.
func (c *Cluster) pickRunnable() *Proc {
	var best *Proc
	for _, p := range c.procs {
		if p.state != stateRunnable {
			continue
		}
		if best == nil || p.clock < best.clock || (p.clock == best.clock && p.rank < best.rank) {
			best = p
		}
	}
	return best
}

func (c *Cluster) allDone() bool {
	for _, p := range c.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// teardown unblocks every non-finished process with an abort signal so
// its goroutine can exit; it then drains their final yields.
func (c *Cluster) teardown() {
	for _, p := range c.procs {
		if p.state == stateDone {
			continue
		}
		p.state = stateRunning
		p.resume <- false
		<-c.yield
	}
}

// deadlockError builds a diagnostic for a run with live processes but
// nothing runnable: per stuck process it reports the virtual clock, the
// pending operation (with wildcard receive arguments spelled out and
// barrier occupancy), and how many unmatched messages sit in its
// mailbox — enough to diagnose a hang in a large sweep without a trace.
func (c *Cluster) deadlockError() error {
	var blocked []*Proc
	recvs, barriers, done := 0, 0, 0
	for _, p := range c.procs {
		switch p.state {
		case stateBlockedRecv:
			recvs++
			blocked = append(blocked, p)
		case stateBlockedBarrier:
			barriers++
			blocked = append(blocked, p)
		case stateDone:
			done++
		}
	}
	live := len(c.procs) - done
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: deadlock — no runnable process among %d (%d waiting on recv, %d in barrier, %d exited)",
		len(c.procs), recvs, barriers, done)
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].rank < blocked[j].rank })
	const maxDetail = 16
	for i, p := range blocked {
		if i == maxDetail {
			fmt.Fprintf(&b, "\n  … %d more stuck process(es)", len(blocked)-i)
			break
		}
		switch p.state {
		case stateBlockedRecv:
			fmt.Fprintf(&b, "\n  rank %d: clock=%v pending recv(src=%s, tag=%s), %d queued message(s), none matching",
				p.rank, p.clock, fmtWild(p.wantSrc, AnySource), fmtWild(p.wantTag, AnyTag), len(p.mailbox))
		case stateBlockedBarrier:
			fmt.Fprintf(&b, "\n  rank %d: clock=%v pending barrier #%d (%d of %d live entered)",
				p.rank, p.clock, c.barrierGen+1, c.inBarrier, live)
		}
	}
	return errors.New(b.String())
}

// fmtWild renders a Recv argument, naming the wildcard.
func fmtWild(v, wild int) string {
	if v == wild {
		return "any"
	}
	return fmt.Sprintf("%d", v)
}

// tryBarrierRelease releases all processes if every live process has
// entered the barrier. Completed processes do not participate: a program
// must make all ranks reach every barrier (like MPI_Barrier), and a rank
// exiting early while others wait is reported as deadlock. releaser is
// the process whose arrival (or exit) triggered the attempt; under the
// parallel scheduler every other released process is woken immediately
// so its next compute section runs concurrently, while releaser keeps
// the turn.
func (c *Cluster) tryBarrierRelease(releaser *Proc) {
	live := 0
	for _, p := range c.procs {
		if p.state != stateDone {
			live++
		}
	}
	if c.inBarrier < live {
		return
	}
	var latest vtime.Time
	for _, p := range c.procs {
		if p.state == stateBlockedBarrier {
			latest = latest.Max(p.clock)
		}
	}
	release := latest.Add(c.mach.BarrierTime(live))
	c.barrierGen++
	c.inBarrier = 0
	for _, p := range c.procs {
		if p.state == stateBlockedBarrier {
			p.clock = release
			p.pickClock = release
			p.state = stateRunnable
			p.stats.Barriers++
			c.noteRunnable(p)
			c.observe(Event{Kind: EvBarrier, Rank: p.rank, Peer: -1, Time: release})
			if c.parallel && p != releaser {
				p.resume <- true
			}
		}
	}
}
