package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// Config sizes the server. Zero values get serving defaults.
type Config struct {
	// Addr is the TCP listen address (default 127.0.0.1:0; the bound
	// address is available from Addr after Start).
	Addr string
	// NodeBin is the ppm-node binary the fleet pool forks for
	// dist-backend jobs; sim and parallel jobs run in-process and do
	// not need it.
	NodeBin string
	// MaxQueue bounds queued jobs across all tenants (default 64).
	MaxQueue int
	// TenantQuota bounds one tenant's queued+running jobs (default 8;
	// negative: unlimited).
	TenantQuota int
	// Workers is how many jobs run concurrently (default 2).
	Workers int
	// IdleTimeout reaps warm fleets parked longer than this (default
	// 2m).
	IdleTimeout time.Duration
	// JobRetention is how long terminal jobs stay queryable via
	// GET /v1/jobs/{id} before the janitor evicts them (default 10m).
	// Cached results outlive the job record via GET /v1/results/{hash}.
	JobRetention time.Duration
	// MaxJobRetries is how many times a dist job whose fleet died is
	// resubmitted before the job is marked failed (default 2; negative:
	// no retries). Retries follow dist.Supervisor: each gets a fresh
	// fleet, one host process smaller once a host is blamed for two
	// failed attempts, so a job can outlive a host that deterministically
	// dies at the same phase.
	MaxJobRetries int
	// Stderr receives fleet stderr (default os.Stderr).
	Stderr io.Writer
}

// Server is the PPM job server. Create with New, serve with Start,
// drain with Shutdown.
type Server struct {
	cfg   Config
	q     *Queue
	cache *resultCache
	pool  *pool

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64

	ln          net.Listener
	hs          *http.Server
	wg          sync.WaitGroup
	janitorStop chan struct{}

	submitted, completed, failed, expired, cachedServed, running int64
	jobsRetried, recoveriesRescaled                              int64
}

// New builds a server from cfg without binding anything.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 8
	} else if cfg.TenantQuota < 0 {
		cfg.TenantQuota = 0 // queue semantics: 0 is unlimited
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 10 * time.Minute
	}
	if cfg.MaxJobRetries == 0 {
		cfg.MaxJobRetries = 2
	} else if cfg.MaxJobRetries < 0 {
		cfg.MaxJobRetries = 0
	}
	return &Server{
		cfg:         cfg,
		q:           NewQueue(cfg.MaxQueue, cfg.TenantQuota),
		cache:       newResultCache(),
		pool:        newPool(cfg.NodeBin, cfg.Stderr),
		jobs:        make(map[string]*Job),
		janitorStop: make(chan struct{}),
	}
}

// Start binds the listener and starts the HTTP loop, the dispatcher
// workers, and the janitor.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.Handler()}
	go s.hs.Serve(ln)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.janitor()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains: the listener stops accepting, the queue stops
// admitting but keeps handing out what is already queued, and the
// workers finish every admitted job. ctx bounds the drain; on timeout
// the error is returned and whatever is still running is abandoned to
// process exit. Warm fleets are retired either way.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs != nil {
		s.hs.Shutdown(ctx)
	}
	s.q.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
	close(s.janitorStop)
	s.pool.closeAll()
	return err
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Tenant   string       `json:"tenant"`
	Priority int          `json:"priority"`
	NoCache  bool         `json:"no_cache,omitempty"`
	Spec     jobspec.Spec `json:"spec"`
}

// SubmitResponse answers a submission: 200 with the result when the
// cache already had it, 202 with a queue position otherwise.
type SubmitResponse struct {
	ID            string          `json:"id"`
	Status        string          `json:"status"`
	Hash          string          `json:"hash"`
	QueuePosition int             `json:"queue_position,omitempty"`
	Result        *jobspec.Result `json:"result,omitempty"`
}

// JobStatus answers GET /v1/jobs/{id}.
type JobStatus struct {
	ID            string          `json:"id"`
	Tenant        string          `json:"tenant"`
	Status        string          `json:"status"`
	Hash          string          `json:"hash"`
	QueuePosition int             `json:"queue_position,omitempty"`
	Phases        int64           `json:"phases"`
	Attempts      int             `json:"attempts"`
	Error         string          `json:"error,omitempty"`
	Result        *jobspec.Result `json:"result,omitempty"`
}

// Metrics answers GET /metrics.
type Metrics struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Expired   int64 `json:"expired"`
		Cached    int64 `json:"cached"`
		Queued    int   `json:"queued"`
		Running   int64 `json:"running"`
		Retried   int64 `json:"jobs_retried"`
	} `json:"jobs"`
	Recoveries struct {
		Rescaled int64 `json:"recoveries_rescaled"`
	} `json:"recoveries"`
	Tenants map[string]int `json:"tenants"`
	Cache   struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	Fleets struct {
		Spawned   int64 `json:"spawned"`
		Reused    int64 `json:"reused"`
		Reaped    int64 `json:"reaped"`
		Discarded int64 `json:"fleets_discarded"`
		Idle      int   `json:"idle"`
	} `json:"fleets"`
}

// Handler returns the HTTP routing table (exported so tests can drive
// the server through httptest without a real socket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON answers code with v as JSON. v is encoded before the header
// is written, so a value that does not encode is answered 500 with the
// encoding error instead of code with a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "response does not encode: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte{'\n'})
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds a submission body: a spec is a few hundred bytes
// of JSON, and the decoder would otherwise buffer whatever it is sent.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req.Spec.Normalize()
	if err := req.Spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Spec.Backend == jobspec.BackendDist && s.cfg.NodeBin == "" {
		writeErr(w, http.StatusBadRequest, "this server has no ppm-node binary configured; dist jobs unavailable")
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	hash := req.Spec.Hash()
	atomic.AddInt64(&s.submitted, 1)

	if !req.NoCache {
		if res := s.cache.get(hash); res != nil {
			atomic.AddInt64(&s.cachedServed, 1)
			j := s.registerJob(req, hash)
			j.finish(StatusDone, res, "")
			writeJSON(w, http.StatusOK, SubmitResponse{ID: j.ID, Status: StatusDone, Hash: hash, Result: res})
			return
		}
	}

	j := s.registerJob(req, hash)
	if req.Spec.DeadlineMS > 0 {
		j.Deadline = time.Now().Add(time.Duration(req.Spec.DeadlineMS) * time.Millisecond)
	}
	if err := s.q.Push(j); err != nil {
		s.forgetJob(j.ID)
		var qe *QuotaError
		var fe *QueueFullError
		switch {
		case errors.As(err, &qe):
			w.Header().Set("Retry-After", strconv.Itoa(int(qe.RetryAfter.Seconds())))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.As(err, &fe):
			// Backlog-proportional, like the quota path: a deeper queue
			// earns the client a longer pause.
			w.Header().Set("Retry-After", strconv.Itoa(int(fe.RetryAfter.Seconds())))
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.ID, Status: StatusQueued, Hash: hash, QueuePosition: s.q.Position(j.ID),
	})
}

func (s *Server) registerJob(req SubmitRequest, hash string) *Job {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := NewJob(id)
	j.Tenant = req.Tenant
	j.Priority = req.Priority
	j.NoCache = req.NoCache
	j.Spec = req.Spec
	j.Hash = hash
	s.jobs[id] = j
	s.mu.Unlock()
	return j
}

func (s *Server) forgetJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	status, phases, result, errMsg := j.Status()
	out := JobStatus{
		ID: j.ID, Tenant: j.Tenant, Status: status, Hash: j.Hash,
		Phases: phases, Attempts: j.attemptCount(), Error: errMsg, Result: result,
	}
	if status == StatusQueued {
		out.QueuePosition = s.q.Position(j.ID)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStream is the phase-progress stream: server-sent events, one
// "phase" event per committed global phase (rank 0's view) and a final
// "done" event carrying the terminal status.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	ch := j.subscribe()
	status, phases, _, _ := j.Status()
	emit("status", map[string]any{"status": status, "phases": phases})
	for {
		select {
		case ph, ok := <-ch:
			if !ok {
				status, phases, _, errMsg := j.Status()
				emit("done", map[string]any{"status": status, "phases": phases, "error": errMsg})
				return
			}
			emit("phase", map[string]int64{"phase": ph})
		case <-r.Context().Done():
			j.unsubscribe(ch)
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res := s.cache.get(r.PathValue("hash"))
	if res == nil {
		writeErr(w, http.StatusNotFound, "no cached result for that hash")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m Metrics
	m.Jobs.Submitted = atomic.LoadInt64(&s.submitted)
	m.Jobs.Completed = atomic.LoadInt64(&s.completed)
	m.Jobs.Failed = atomic.LoadInt64(&s.failed)
	m.Jobs.Expired = atomic.LoadInt64(&s.expired)
	m.Jobs.Cached = atomic.LoadInt64(&s.cachedServed)
	m.Jobs.Queued = s.q.Len()
	m.Jobs.Running = atomic.LoadInt64(&s.running)
	m.Jobs.Retried = atomic.LoadInt64(&s.jobsRetried)
	m.Recoveries.Rescaled = atomic.LoadInt64(&s.recoveriesRescaled)
	m.Tenants = s.q.InFlight()
	m.Cache.Hits, m.Cache.Misses, m.Cache.Entries = s.cache.stats()
	m.Fleets.Spawned, m.Fleets.Reused, m.Fleets.Reaped, m.Fleets.Discarded, m.Fleets.Idle = s.pool.stats()
	writeJSON(w, http.StatusOK, m)
}

// worker is one dispatcher loop: pop, run, release the tenant's quota
// slot. Exits when the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop()
		if !ok {
			return
		}
		s.runJob(j)
		s.q.Release(j.Tenant)
	}
}

// runJob drives one popped job to a terminal state.
func (s *Server) runJob(j *Job) {
	if !j.Deadline.IsZero() {
		remain := time.Until(j.Deadline)
		if remain <= 0 {
			atomic.AddInt64(&s.expired, 1)
			j.finish(StatusExpired, nil, "deadline expired while queued")
			return
		}
		// The run itself gets only what is left of the deadline; the
		// node-side engine deadline enforces it with the rank and
		// in-flight operation named.
		if ms := remain.Milliseconds(); ms >= 1 && (j.Spec.DeadlineMS == 0 || ms < j.Spec.DeadlineMS) {
			j.Spec.DeadlineMS = ms
		}
	}
	if !j.setRunning() {
		return // janitor expired it between Pop and here
	}
	atomic.AddInt64(&s.running, 1)
	defer atomic.AddInt64(&s.running, -1)

	// A duplicate may have completed while this one queued.
	if !j.NoCache {
		if res := s.cache.get(j.Hash); res != nil {
			atomic.AddInt64(&s.cachedServed, 1)
			atomic.AddInt64(&s.completed, 1)
			j.finish(StatusDone, res, "")
			return
		}
	}

	var res *jobspec.Result
	var err error
	if j.Spec.Backend == jobspec.BackendDist {
		res, err = s.runDist(j)
	} else {
		res, err = jobspec.RunLocal(&j.Spec)
	}
	if err != nil {
		atomic.AddInt64(&s.failed, 1)
		j.finish(StatusFailed, nil, err.Error())
		return
	}
	s.cache.put(res)
	atomic.AddInt64(&s.completed, 1)
	j.finish(StatusDone, res, "")
}

// runDist runs a dist-backend job under the fleet supervisor
// (dist.Supervisor), whose retries are bounded by the job's budget and
// deadline. Attempt 0 takes a warm pooled fleet, every retry a fresh one
// (pool.acquire). A failed attempt discards its fleet (a distributed
// abort poisons the engines); success parks it warm for the next job of
// its shape.
func (s *Server) runDist(j *Job) (*jobspec.Result, error) {
	line, err := json.Marshal(jobspec.NodeJob{ID: j.ID, Spec: j.Spec})
	if err != nil {
		return nil, fmt.Errorf("server: encoding job %s: %v", j.ID, err)
	}
	line = append(line, '\n')
	sup := dist.Supervisor{
		Nodes: j.Spec.Nodes, Retries: s.cfg.MaxJobRetries, Deadline: j.Deadline,
		OnRetry: func(_, procs int, _ error) {
			atomic.AddInt64(&s.jobsRetried, 1)
			if procs < j.Spec.Nodes {
				atomic.AddInt64(&s.recoveriesRescaled, 1)
			}
		},
	}
	var m *dist.Merged
	_, err = sup.Run(func(attempt, procs int) ([]dist.NodeResult, error) {
		j.noteAttempt()
		f, err := s.pool.acquire(fleetKey{nodes: j.Spec.Nodes, procs: procs, cores: j.Spec.Cores, preset: j.Spec.Preset}, attempt)
		if err != nil {
			return nil, err
		}
		results, err := f.Run(j.ID, line, j.notifyPhase)
		if err == nil {
			m, err = dist.Merge(j.Spec.AppSpec(), results)
		}
		if err != nil {
			s.pool.discard(f)
			return nil, err
		}
		s.pool.release(f)
		return results, nil
	})
	if err != nil {
		return nil, err
	}
	return jobspec.FromMerged(&j.Spec, m)
}

// janitor expires queued jobs past their deadline, reaps idle fleets,
// and evicts terminal job records past the retention window.
func (s *Server) janitor() {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			for _, j := range s.q.Expire(now) {
				atomic.AddInt64(&s.expired, 1)
				j.finish(StatusExpired, nil, "deadline expired while queued")
				s.q.Release(j.Tenant)
			}
			s.pool.reap(now.Add(-s.cfg.IdleTimeout))
			s.evictJobs(now.Add(-s.cfg.JobRetention))
		}
	}
}

// evictJobs drops terminal jobs that finished before cutoff so s.jobs
// stays bounded on a long-lived server. Queued and running jobs are
// never touched; their records go terminal first.
func (s *Server) evictJobs(cutoff time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.terminalBefore(cutoff) {
			delete(s.jobs, id)
		}
	}
}
