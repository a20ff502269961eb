package server

import (
	"sync"

	"ppm/internal/jobspec"
)

// resultCache is the content-addressed result store: canonical spec
// hash -> flattened result. Two specs with the same hash are the same
// computation (the canonical encoding covers everything that can change
// the output, and the runtime is deterministic), so a hit returns a
// bit-identical result without running anything. Entries are never
// evicted: a server's working set of distinct specs is small, though a
// result is not (the default cg's is 221 KB of words, served as about
// 295 KB of base64); an operator who needs a bound restarts the server.
type resultCache struct {
	mu     sync.Mutex
	m      map[string]*jobspec.Result
	hits   int64
	misses int64
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]*jobspec.Result)}
}

// get returns the cached result for hash, marked Cached, or nil. The
// returned value is a shallow copy: the Series backing arrays are
// shared but immutable by convention (nothing writes a stored result).
func (c *resultCache) get(hash string) *jobspec.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[hash]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	out := *r
	out.Cached = true
	return &out
}

// put stores a fresh result under its hash. First write wins: a
// concurrent duplicate run produced a bit-identical result anyway.
func (c *resultCache) put(r *jobspec.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[r.Hash]; !ok {
		c.m[r.Hash] = r
	}
}

// stats returns the hit/miss counters and entry count.
func (c *resultCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}
