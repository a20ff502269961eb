package server

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ppm/internal/dist"
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
	*dist.Fleet
	key fleetKey
}

// idleFleet is a pooled fleet with its park timestamp.
type idleFleet struct {
	f     *fleet
	since time.Time
}

// pool keeps warm fleets between jobs. acquire hands a job's first
// attempt the most recently parked fleet of the right shape and every
// retry a fresh one; release parks an idle fleet, discard kills a broken
// one; reap retires fleets idle past the configured timeout.
type pool struct {
	// launch is every fleet's host command line; spawn sets Nodes.
	launch dist.LaunchOpts

	mu     sync.Mutex
	idle   map[fleetKey][]idleFleet
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

// acquire returns a fleet of key's shape for a job's attempt. Attempt 0
// takes the most recently parked one (its plan cache is most likely to
// still match), or spawns one. Every later attempt spawns fresh: an idle
// fleet was spawned as attempt 0 and may be armed with (or already
// poisoned by) the one-shot fault that killed the first run.
func (p *pool) acquire(key fleetKey, attempt int) (*fleet, error) {
	p.mu.Lock()
	for fleets := p.idle[key]; attempt == 0 && len(fleets) > 0; fleets = p.idle[key] {
		cand := fleets[len(fleets)-1].f
		p.idle[key] = fleets[:len(fleets)-1]
		if cand.Idle() {
			p.reused++
			p.mu.Unlock()
			return cand, nil
		}
		p.discarded++
		p.mu.Unlock()
		cand.Stop()
		p.mu.Lock()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("server: pool closed")
	}
	p.spawned++
	p.mu.Unlock()
	return p.spawn(key, attempt)
}

// release parks a fleet for reuse; broken or dead fleets are retired
// instead.
func (p *pool) release(f *fleet) {
	if !f.Idle() {
		p.discard(f)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		f.Stop()
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
	f.Stop()
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
		f.Stop()
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
		f.Stop()
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
func (p *pool) spawn(key fleetKey, attempt int) (*fleet, error) {
	lo := p.launch
	lo.Nodes = key.nodes
	f, err := lo.StartFleet(attempt, key.procs)
	if err != nil {
		return nil, fmt.Errorf("server: spawning fleet %v: %v", key, err)
	}
	return &fleet{Fleet: f, key: key}, nil
}
