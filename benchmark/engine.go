package main

import (
	"sync"
	"sync/atomic"

	"ppm/internal/cluster"
	"ppm/internal/dist"
	"ppm/internal/mp"
)

// Span names the wrapper records. They are the seam between core and
// dist seen from core's side: every blocking call core makes into the
// engine, plus the reads the engine serves for peers.
const (
	spanFetch     = "dist.Fetch"
	spanCommit    = "dist.CommitExchange"
	spanRecv      = "dist.Recv"
	spanReadServe = "dist.ReadServe"
)

// captureLimit bounds the outgoing commit streams one engine keeps of
// one job for the wire.* timings (two commit-heavy jobs: 1 MB).
const captureLimit = 512 << 10

// tracedEngine is a core.DistEngine that forwards everything to the
// embedded engine and records a span around each blocking call. core
// takes the interface and asserts no concrete type, so the run through
// the wrapper is the run through the bare engine plus clock reads.
type tracedEngine struct {
	*dist.Engine
	tr *tracer

	// parent and round say which span the next calls belong to; the
	// workload sets them before each job (one job runs at a time).
	parent atomic.Int32
	round  atomic.Int32

	fetchBytes  atomic.Int64
	commitBytes atomic.Int64

	mu        sync.Mutex
	captured  [][]byte // non-empty outgoing commit streams kept for the wire.* timings
	capBudget int      // bytes the current job may still add to captured
}

func newTracedEngine(eng *dist.Engine, tr *tracer) *tracedEngine {
	return &tracedEngine{Engine: eng, tr: tr}
}

// attach points the wrapper's spans at a new parent span, and lets the
// job that starts capture up to budget bytes of commit streams.
func (e *tracedEngine) attach(parent int32, round, budget int) {
	e.parent.Store(parent)
	e.round.Store(int32(round))
	e.mu.Lock()
	e.capBudget = budget
	e.mu.Unlock()
}

func (e *tracedEngine) leaf(name string, start int64) {
	e.tr.record(name, start, e.tr.now(), e.parent.Load(), int(e.round.Load()), e.Rank())
}

func (e *tracedEngine) Fetch(array, owner, lo, hi int) ([]byte, error) {
	start := e.tr.now()
	data, err := e.Engine.Fetch(array, owner, lo, hi)
	e.leaf(spanFetch, start)
	e.fetchBytes.Add(int64(len(data)))
	return data, err
}

func (e *tracedEngine) CommitExchange(phase int64, outgoing [][]byte) ([][]byte, error) {
	var out int64
	e.mu.Lock()
	for dst, stream := range outgoing {
		if dst == e.Rank() || len(stream) == 0 {
			continue
		}
		out += int64(len(stream))
		if len(stream) <= e.capBudget {
			e.captured = append(e.captured, append([]byte(nil), stream...))
			e.capBudget -= len(stream)
		}
	}
	e.mu.Unlock()
	e.commitBytes.Add(out)
	start := e.tr.now()
	in, err := e.Engine.CommitExchange(phase, outgoing)
	e.leaf(spanCommit, start)
	return in, err
}

func (e *tracedEngine) SetReadServer(fn func(array, lo, hi int) ([]byte, error)) {
	e.Engine.SetReadServer(func(array, lo, hi int) ([]byte, error) {
		start := e.tr.now()
		data, err := fn(array, lo, hi)
		e.leaf(spanReadServe, start)
		return data, err
	})
}

func (e *tracedEngine) Endpoint() mp.Endpoint { return tracedEndpoint{e.Engine, e} }

// tracedEndpoint times the one blocking call of node-level message
// passing; sends are eager and pass straight through.
type tracedEndpoint struct {
	mp.Endpoint
	e *tracedEngine
}

func (p tracedEndpoint) Recv(src, tag int) *cluster.Message {
	start := p.e.tr.now()
	m := p.Endpoint.Recv(src, tag)
	p.e.leaf(spanRecv, start)
	return m
}
