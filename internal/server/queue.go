// Package server is the PPM job server: a long-lived control plane that
// accepts concurrent job submissions over HTTP/JSON, runs them through
// the simulator or a pooled distributed fleet, and returns flattened
// jobspec results. Three subsystems do the work:
//
//   - a bounded priority queue with per-tenant admission quotas and
//     per-job deadlines (queue.go),
//   - a fleet pool that keeps warm serve-mode ppm-node fleets alive
//     between jobs so the plan cache and the warm doRuns survive
//     across submissions (pool.go),
//   - a content-addressed result cache keyed by the canonical spec
//     hash, serving bit-identical repeats without running anything
//     (cache.go).
//
// server.go ties them together behind the /v1 endpoints.
package server

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppm/internal/jobspec"
)

// ErrQueueFull rejects a submission when the queue is at capacity; the
// HTTP layer maps it to 503 with a Retry-After.
var ErrQueueFull = errors.New("server: queue full")

// QueueFullError is the concrete queue-full rejection: it carries the
// backlog depth and a backlog-proportional Retry-After for the HTTP
// layer. It unwraps to ErrQueueFull so existing errors.Is checks hold.
type QueueFullError struct {
	Queued     int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server: queue full (%d jobs queued); retry in %v", e.Queued, e.RetryAfter)
}

func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// ErrQueueClosed rejects submissions after shutdown began.
var ErrQueueClosed = errors.New("server: queue closed (shutting down)")

// QuotaError rejects a submission whose tenant already has its full
// quota of jobs admitted (queued + running); the HTTP layer maps it to
// 429 with Retry-After.
type QuotaError struct {
	Tenant     string
	InFlight   int
	Quota      int
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("server: tenant %q has %d jobs in flight (quota %d); retry in %v",
		e.Tenant, e.InFlight, e.Quota, e.RetryAfter)
}

// Job is one admitted submission. The queue orders jobs by descending
// Priority, FIFO within a priority. Fields under mu are the job's
// observable lifecycle; everything else is immutable after Push.
type Job struct {
	ID       string
	Tenant   string
	Priority int
	NoCache  bool // run even on a cache hit (forces a fresh fleet run)
	Spec     jobspec.Spec
	Hash     string
	Deadline time.Time // zero: no deadline

	seq int64 // admission order, ties FIFO

	mu       sync.Mutex
	status   string // StatusQueued ... StatusExpired
	phases   int64
	attempts int // fleet runs spent on this job (retries included)
	result   *jobspec.Result
	errMsg   string
	doneAt   time.Time     // when the job reached a terminal status
	done     chan struct{} // closed on any terminal status
	subs     []chan int64  // phase-progress subscribers
}

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusExpired = "expired"
)

// NewJob returns a queued job with its lifecycle channel armed.
func NewJob(id string) *Job {
	return &Job{ID: id, status: StatusQueued, done: make(chan struct{})}
}

// Status returns the job's current lifecycle snapshot.
func (j *Job) Status() (status string, phases int64, result *jobspec.Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.phases, j.result, j.errMsg
}

// Done returns the channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// noteAttempt counts one fleet run spent on this job.
func (j *Job) noteAttempt() {
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
}

// attemptCount reports how many fleet runs the job has consumed.
func (j *Job) attemptCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// setRunning moves a queued job to running; it reports false when the
// job already left the queued state (expired by the janitor).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// finish moves the job to a terminal state and wakes all waiters. A
// second terminal transition is ignored (janitor expiry can race the
// dispatcher's own deadline check).
func (j *Job) finish(status string, result *jobspec.Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusExpired {
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.doneAt = time.Now()
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
}

// notifyPhase records phase progress and fans it out to stream
// subscribers without blocking the run (slow consumers drop ticks).
func (j *Job) notifyPhase(ph int64) {
	j.mu.Lock()
	j.phases = ph
	subs := j.subs
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ph:
		default:
		}
	}
}

// subscribe registers a phase-progress channel; it is closed when the
// job finishes. A job already terminal returns a closed channel.
func (j *Job) subscribe() chan int64 {
	ch := make(chan int64, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone, StatusFailed, StatusExpired:
		close(ch)
	default:
		j.subs = append(j.subs, ch)
	}
	return ch
}

// unsubscribe drops a subscriber that stopped listening (stream client
// disconnect) so notifyPhase stops poking its dead channel. A channel
// already removed by finish is a no-op.
func (j *Job) unsubscribe(ch chan int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, sub := range j.subs {
		if sub == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// terminalBefore reports whether the job reached a terminal state
// before cutoff; the server's janitor uses it to evict old jobs.
func (j *Job) terminalBefore(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.doneAt.IsZero() && j.doneAt.Before(cutoff)
}

// Queue is the bounded priority queue with per-tenant quotas. A
// tenant's quota covers queued plus running jobs: Pop hands a job to a
// worker without releasing the slot, and the dispatcher calls Release
// when the job reaches a terminal state. Pop blocks until a job is
// available or the queue is closed and drained.
type Queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	heap  jobHeap
	max   int
	quota int // per-tenant admitted jobs (queued + running); 0: unlimited

	inFlight map[string]int // tenant -> admitted jobs
	seq      int64
	closed   bool
}

// NewQueue returns a queue holding at most max jobs (0: 64) admitting
// at most quota jobs per tenant (0: unlimited).
func NewQueue(max, quota int) *Queue {
	if max <= 0 {
		max = 64
	}
	q := &Queue{max: max, quota: quota, inFlight: make(map[string]int)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits a job or explains the rejection: ErrQueueFull and
// *QuotaError both leave the queue unchanged, so a rejected submission
// is never half-admitted.
func (q *Queue) Push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.heap) >= q.max {
		n := len(q.heap)
		// Advise a retry pause proportional to the backlog, mirroring
		// the quota path below: the fuller the queue, the longer the
		// wait before a slot plausibly opens.
		ra := time.Duration(n) * 500 * time.Millisecond
		if ra < time.Second {
			ra = time.Second
		}
		if ra > 30*time.Second {
			ra = 30 * time.Second
		}
		return &QueueFullError{Queued: n, RetryAfter: ra}
	}
	if q.quota > 0 && q.inFlight[j.Tenant] >= q.quota {
		n := q.inFlight[j.Tenant]
		// Advise a retry pause proportional to the backlog the tenant
		// itself created, bounded to something a client will tolerate.
		ra := time.Duration(n) * 2 * time.Second
		if ra < time.Second {
			ra = time.Second
		}
		if ra > 60*time.Second {
			ra = 60 * time.Second
		}
		return &QuotaError{Tenant: j.Tenant, InFlight: n, Quota: q.quota, RetryAfter: ra}
	}
	q.seq++
	j.seq = q.seq
	q.inFlight[j.Tenant]++
	heap.Push(&q.heap, j)
	q.cond.Signal()
	return nil
}

// Pop blocks until it can return the highest-priority queued job. ok is
// false only when the queue is closed and fully drained. The tenant's
// quota slot stays held until Release.
func (q *Queue) Pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil, false
	}
	return heap.Pop(&q.heap).(*Job), true
}

// Release returns a tenant's quota slot when their job leaves the
// system (terminal state).
func (q *Queue) Release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.inFlight[tenant]; n > 1 {
		q.inFlight[tenant] = n - 1
	} else {
		delete(q.inFlight, tenant)
	}
}

// Position reports a job's 1-based position among queued jobs (the
// order Pop would drain them), or 0 when it is not queued.
func (q *Queue) Position(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var target *Job
	for _, j := range q.heap {
		if j.ID == id {
			target = j
			break
		}
	}
	if target == nil {
		return 0
	}
	pos := 1
	for _, j := range q.heap {
		if j != target && jobLess(j, target) {
			pos++
		}
	}
	return pos
}

// Len reports how many jobs are queued (not yet popped).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// InFlight reports every tenant's admitted (queued + running) count.
func (q *Queue) InFlight() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.inFlight))
	for t, n := range q.inFlight {
		out[t] = n
	}
	return out
}

// Expire removes and returns every queued job whose deadline has
// passed. The caller finishes them (and releases their quota slots);
// the queue only forgets them.
func (q *Queue) Expire(now time.Time) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []*Job
	keep := q.heap[:0]
	for _, j := range q.heap {
		if !j.Deadline.IsZero() && now.After(j.Deadline) {
			expired = append(expired, j)
		} else {
			keep = append(keep, j)
		}
	}
	if len(expired) > 0 {
		q.heap = keep
		heap.Init(&q.heap)
	}
	return expired
}

// Close stops admissions. Pop keeps draining what is already queued and
// then reports done, which is how shutdown lets in-flight work finish.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// jobLess orders a before b: higher priority first, FIFO within one.
func jobLess(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// jobHeap implements container/heap over jobLess.
type jobHeap []*Job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return jobLess(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
