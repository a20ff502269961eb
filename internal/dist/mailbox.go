package dist

import (
	"slices"
	"sync"
	"time"

	"ppm/internal/cluster"
	"ppm/internal/mp"
)

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
	// floor is the last collective generation of the engine's earlier
	// runs: a message of a generation at or below it belongs to a
	// collective that has finished, so nothing can ever receive it.
	floor int
	// timers recycles the deadline timers of receives that had to block
	// (several may, concurrently); each only wakes cond's waiters.
	timers sync.Pool
}

func (mb *mailbox) init() { mb.cond = sync.NewCond(&mb.mu) }

func (mb *mailbox) put(m mailMsg) {
	mb.mu.Lock()
	if mb.stale(m) {
		mb.mu.Unlock()
		return
	}
	mb.q = append(mb.q, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// stale reports whether m is a message of a finished collective (a
// duplicated frame, or one of a collective an earlier run left behind).
func (mb *mailbox) stale(m mailMsg) bool {
	gen, ok := mp.TagGen(m.tag)
	return ok && gen <= mb.floor
}

// dropBefore is called as a run starts, with the generation its
// collectives continue from: it drops every queued message of an earlier
// collective and turns away any that arrives later.
func (mb *mailbox) dropBefore(gen int) {
	mb.mu.Lock()
	mb.floor = gen
	mb.q = slices.DeleteFunc(mb.q, mb.stale)
	mb.mu.Unlock()
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
