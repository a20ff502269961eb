package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Times
// are nanoseconds since the tracer was created; parent is the id of the
// span that caused this one (-1 for a root); rank is -1 off the mesh.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Round  int32
	Rank   int32
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs share the traced code path without
// paying for it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id for children to name as parent
// and for end to close.
func (t *tracer) begin(name string, parent int32, round, rank int) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: int32(round), Rank: int32(rank)})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record stores a finished leaf span.
func (t *tracer) record(name string, start, end int64, parent int32, round, rank int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Round: int32(round), Rank: int32(rank)})
	t.mu.Unlock()
}

// durations returns the duration of every span with the given name,
// in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// childrenOf groups the intervals of spans with one of the given names
// by parent id.
func (t *tracer) childrenOf(names ...string) map[int32][]interval {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int32][]interval)
	for _, s := range t.spans {
		if want[s.Name] {
			out[s.Parent] = append(out[s.Parent], interval{s.Start, s.End})
		}
	}
	return out
}

// spanFileRounds is how many traced rounds' spans the span file holds.
// Every round's spans feed the metrics; the file is for reading one
// job's timeline, and a mesh round alone is tens of thousands of spans.
const spanFileRounds = 2

// writeTo writes one JSON object per span of the first spanFileRounds
// rounds. A span's id (what its children name as parent) is its
// position in recording order.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for id, s := range t.spans {
		if s.Round >= spanFileRounds {
			continue
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"round\":%d,\"rank\":%d}\n",
			id, s.Name, s.Start, s.End, s.Parent, s.Round, s.Rank)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
