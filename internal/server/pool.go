package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ppm/internal/dist"
	"ppm/internal/jobspec"
)

// fleetKey identifies a reusable fleet shape. Jobs only share a fleet
// when node count, host-process count, machine preset, and core width
// all match: the serve protocol would run any spec on any fleet of the
// right node count, but keeping shapes apart keeps a fleet's plan-cache
// session relevant to the jobs routed at it. procs < nodes is a
// rescaled fleet — fewer processes block-hosting the same logical mesh
// — used by job retries after a fleet death.
type fleetKey struct {
	nodes  int
	procs  int
	cores  int
	preset string
}

// fleet is a connected set of serve-mode node processes. One job runs
// at a time (the pool hands a fleet to exactly one worker); between
// jobs the processes idle with their TCP mesh up and their plan-cache
// sessions parked, which is the whole point of pooling them.
type fleet struct {
	key    fleetKey
	hosts  []*dist.Host
	dir    string // rendezvous dir, removed at stop
	served int    // jobs completed on this fleet
	broken bool   // a run errored; the engines may be poisoned
}

// run submits one job to every host process and gathers one terminal
// reply per hosted rank. Rank 0's phase-progress replies (host 0 hosts
// it) stream through onPhase as they arrive. Any host exiting mid-job
// or replying with an error marks the fleet broken; the caller must
// discard it.
func (f *fleet) run(id string, spec *jobspec.Spec, onPhase func(int64)) ([]dist.NodeResult, error) {
	line, err := json.Marshal(jobspec.NodeJob{ID: id, Spec: *spec})
	if err != nil {
		return nil, fmt.Errorf("server: encoding job %s: %v", id, err)
	}
	line = append(line, '\n')
	for hi, h := range f.hosts {
		if _, err := h.Stdin.Write(line); err != nil {
			f.broken = true
			return nil, fmt.Errorf("server: fleet write to host %d: %v", hi, err)
		}
	}
	results := make([]dist.NodeResult, f.key.nodes)
	errs := make([]error, len(f.hosts))
	var wg sync.WaitGroup
	for hi, h := range f.hosts {
		wg.Add(1)
		go func(hi int, h *dist.Host) {
			defer wg.Done()
			got := 0
			for rep := range h.Replies {
				if rep.ID != id {
					continue // a reply to no job of ours, such as a start-up failure
				}
				if !rep.Done {
					if hi == 0 && onPhase != nil {
						onPhase(rep.Phase)
					}
					continue
				}
				if rep.Result == nil {
					errs[hi] = fmt.Errorf("host %d: terminal reply without a result", hi)
					return
				}
				r := rep.Result.Rank
				if r < h.Lo || r >= h.Hi {
					errs[hi] = fmt.Errorf("host %d: terminal reply for rank %d, which it does not host", hi, r)
					return
				}
				results[r] = *rep.Result
				if got++; got == h.Hi-h.Lo {
					return
				}
			}
			errs[hi] = fmt.Errorf("host %d (ranks %d-%d): exited mid-job", hi, h.Lo, h.Hi-1)
		}(hi, h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.broken = true
			return nil, fmt.Errorf("server: fleet failed job %s: %v", id, err)
		}
	}
	for _, res := range results {
		if res.Err != "" {
			f.broken = true
		}
	}
	f.served++
	return results, nil
}

// healthy reports whether every host is still idling. A host says
// nothing between jobs, so a reply line or the close that follows its
// exit both mean it is done.
func (f *fleet) healthy() bool {
	if f.broken {
		return false
	}
	for _, h := range f.hosts {
		select {
		case <-h.Replies:
			return false
		default:
		}
	}
	return true
}

// stop retires the fleet: closing stdin ends each host's session (its
// engines close and it exits), and hosts that linger past the grace are
// killed. Broken fleets skip the grace: their engines are wedged or dead
// already. Every host's replies are drained to their close.
func (f *fleet) stop() {
	for _, h := range f.hosts {
		h.Stdin.Close()
	}
	grace := 5 * time.Second
	if f.broken {
		grace = 100 * time.Millisecond
	}
	kill := time.AfterFunc(grace, func() {
		for _, h := range f.hosts {
			h.Kill()
		}
	})
	for _, h := range f.hosts {
		h.Wait()
	}
	kill.Stop()
	os.RemoveAll(f.dir)
}

// idleFleet is a pooled fleet with its park timestamp.
type idleFleet struct {
	f     *fleet
	since time.Time
}

// pool keeps warm fleets between jobs. acquire prefers the most
// recently parked fleet of the right shape (its plan cache is most
// likely to still match); release parks a healthy fleet, discard kills
// a broken one; reap retires fleets idle past the configured timeout.
type pool struct {
	// launch is every fleet's host command line; spawn sets Nodes.
	launch dist.LaunchOpts

	mu     sync.Mutex
	idle   map[fleetKey][]idleFleet
	seq    int
	closed bool

	spawned, reused, reaped, discarded int64
}

func newPool(nodeBin string, stderr io.Writer) *pool {
	if stderr == nil {
		stderr = os.Stderr
	}
	return &pool{
		launch: dist.LaunchOpts{NodeBin: nodeBin, NodeArgs: []string{"-serve"}, Stderr: stderr},
		idle:   make(map[fleetKey][]idleFleet),
	}
}

// acquire returns a warm fleet for key, or spawns one. reused reports
// whether the fleet had served before (the e2e tests assert warm-path
// behavior through it).
func (p *pool) acquire(key fleetKey) (f *fleet, reusedFleet bool, err error) {
	p.mu.Lock()
	for {
		fleets := p.idle[key]
		if len(fleets) == 0 {
			break
		}
		cand := fleets[len(fleets)-1].f
		p.idle[key] = fleets[:len(fleets)-1]
		if !cand.healthy() {
			p.discarded++
			p.mu.Unlock()
			cand.stop()
			p.mu.Lock()
			continue
		}
		p.reused++
		p.mu.Unlock()
		return cand, true, nil
	}
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("server: pool closed")
	}
	p.seq++
	seq := p.seq
	p.spawned++
	p.mu.Unlock()
	f, err = p.spawn(key, seq, 0)
	return f, false, err
}

// acquireFresh always spawns a new fleet, bypassing the warm pool, with
// the given launch attempt in the children's PPM_FAULT_ATTEMPT. Job
// retries use it: an idle fleet was spawned as attempt 0 and may be
// armed with (or already poisoned by) the one-shot fault that killed
// the first run.
func (p *pool) acquireFresh(key fleetKey, attempt int) (*fleet, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("server: pool closed")
	}
	p.seq++
	seq := p.seq
	p.spawned++
	p.mu.Unlock()
	return p.spawn(key, seq, attempt)
}

// release parks a fleet for reuse; broken or dead fleets are retired
// instead.
func (p *pool) release(f *fleet) {
	if !f.healthy() {
		p.discard(f)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		f.stop()
		return
	}
	p.idle[f.key] = append(p.idle[f.key], idleFleet{f: f, since: time.Now()})
	p.mu.Unlock()
}

// discard retires a fleet without pooling it.
func (p *pool) discard(f *fleet) {
	p.mu.Lock()
	p.discarded++
	p.mu.Unlock()
	f.stop()
}

// reap retires every fleet idle since before cutoff.
func (p *pool) reap(cutoff time.Time) {
	p.mu.Lock()
	var victims []*fleet
	for key, fleets := range p.idle {
		keep := fleets[:0]
		for _, idf := range fleets {
			if idf.since.Before(cutoff) {
				victims = append(victims, idf.f)
			} else {
				keep = append(keep, idf)
			}
		}
		if len(keep) == 0 {
			delete(p.idle, key)
		} else {
			p.idle[key] = keep
		}
	}
	p.reaped += int64(len(victims))
	p.mu.Unlock()
	for _, f := range victims {
		f.stop()
	}
}

// closeAll drains every idle fleet and refuses new spawns. Fleets
// currently running jobs are retired by their workers via release.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	var victims []*fleet
	for _, fleets := range p.idle {
		for _, idf := range fleets {
			victims = append(victims, idf.f)
		}
	}
	p.idle = make(map[fleetKey][]idleFleet)
	p.mu.Unlock()
	for _, f := range victims {
		f.stop()
	}
}

// stats snapshots the pool counters and current idle fleet count.
func (p *pool) stats() (spawned, reused, reaped, discarded int64, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fleets := range p.idle {
		idle += len(fleets)
	}
	return p.spawned, p.reused, p.reaped, p.discarded, idle
}

// spawn forks one serve-mode fleet of key.procs host processes
// (key.procs < key.nodes block-hosts several logical ranks per process).
// attempt reaches the children as PPM_FAULT_ATTEMPT, so one-shot
// injected faults arm only on a job's first fleet.
func (p *pool) spawn(key fleetKey, seq, attempt int) (*fleet, error) {
	dir, err := os.MkdirTemp("", "ppm-serve-")
	if err != nil {
		return nil, fmt.Errorf("server: rendezvous dir: %w", err)
	}
	runID := fmt.Sprintf("serve-%d-%d", os.Getpid(), seq)
	f := &fleet{key: key, dir: dir}
	procs := key.procs
	if procs <= 0 || procs > key.nodes {
		procs = key.nodes
	}
	lo := p.launch
	lo.Nodes = key.nodes
	for hi := 0; hi < procs; hi++ {
		h, err := lo.StartHost(dir, runID, attempt, procs, hi)
		if err != nil {
			f.broken = true
			f.stop()
			return nil, fmt.Errorf("server: spawning host %d of fleet %v: %v", hi, key, err)
		}
		f.hosts = append(f.hosts, h)
	}
	return f, nil
}
