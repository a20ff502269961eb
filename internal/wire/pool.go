package wire

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pool recycles slices of E by size class, a power of two of bytes from
// 512 bytes to 16 MiB: a slice whose capacity holds c bytes sits in class
// floor(log2 c) and a request for n bytes draws from class ceil(log2 n),
// so whatever a class hands out is large enough. A miss allocates the
// class's size, so the slice goes back to the class it came from; a slice
// outside the classes is left to the collector. The classes are
// sync.Pools, so an idle process keeps nothing alive through them; the *[]E
// boxes they hold are recycled through a pool of their own, so once warm
// neither a get nor a put allocates. E's size must be a power of two (a
// byte, a fixed-size number). The zero Pool is ready to use.
//
// Two kinds of storage come from instances of it: the payloads below,
// which carry remote-read data across goroutines (the owner's copy of each
// range, the joined reply the link writer ships, and the requester's
// reply, lent to the fetching VP until it releases it), and a run's shared
// arrays (package core), which go back when the run ends.
type Pool[E any] struct {
	classes [maxPoolShift - minPoolShift + 1]sync.Pool // *[]E, cap in [2^k, 2^(k+1)) bytes
	boxes   sync.Pool                                  // empty *[]E
}

const (
	minPoolShift = 9
	maxPoolShift = 24
)

// elemShift is log2 of E's size.
func elemShift[E any]() int {
	var e E
	return bits.TrailingZeros(uint(unsafe.Sizeof(e)))
}

// class returns the class a request for n elements draws from, false for
// a request beyond the largest.
func (p *Pool[E]) class(n int) (int, bool) {
	k := max(bits.Len(uint(max(n<<elemShift[E](), 1)-1)), minPoolShift)
	return k - minPoolShift, k <= maxPoolShift
}

// take pops a slice of class c, or nil when the class is empty.
func (p *Pool[E]) take(c int) []E {
	box, _ := p.classes[c].Get().(*[]E)
	if box == nil {
		return nil
	}
	b := *box
	*box = nil
	p.boxes.Put(box)
	return b
}

// Get returns an empty slice with room for at least n elements, from the
// pool if its class holds one; otherwise it allocates the class's size.
// Put it when done.
func (p *Pool[E]) Get(n int) []E {
	c, ok := p.class(n)
	if !ok {
		return make([]E, 0, n)
	}
	if b := p.take(c); b != nil {
		return b
	}
	return make([]E, 0, 1<<(c+minPoolShift)>>elemShift[E]())
}

// Pooled returns a slice of length n from the pool, or nil when the pool
// has none: it never allocates. Its elements are whatever the slice's last
// holder left in them.
func (p *Pool[E]) Pooled(n int) []E {
	c, ok := p.class(n)
	if !ok {
		return nil
	}
	if b := p.take(c); b != nil {
		return b[:n]
	}
	return nil
}

// Put hands b to the pool. The caller must hold the only reference:
// whoever draws it next overwrites it.
func (p *Pool[E]) Put(b []E) {
	k := bits.Len(uint(cap(b))<<elemShift[E]()) - 1
	if k < minPoolShift || k > maxPoolShift {
		return
	}
	box, _ := p.boxes.Get().(*[]E)
	if box == nil {
		box = new([]E)
	}
	*box = b[:0]
	p.classes[k-minPoolShift].Put(box)
}

// payloads is the pool of read payloads.
var payloads Pool[byte]

// GetBuf returns an empty payload buffer with room for at least n bytes
// (Pool.Get). PutBuf it when done.
func GetBuf(n int) []byte { return payloads.Get(n) }

// PooledPayload returns a pooled buffer of length n for a frame payload
// about to be read, or nil when the pool has none: it never allocates,
// so a reader that gets nil grows the payload as its bytes arrive
// (AppendPayload), and a length prefix alone still buys no memory.
func PooledPayload(n int) []byte { return payloads.Pooled(n) }

// PutBuf hands b to the payload pool (Pool.Put).
func PutBuf(b []byte) { payloads.Put(b) }
