package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Pool recycles slices of E by size class. The classes run from 512 bytes
// to 16 MiB in quarter steps of each power of two (512, 640, 768, 896,
// 1024, 1280, ...): a slice whose capacity holds c bytes sits in the
// largest class of at most c bytes, and a request for n bytes draws from
// the smallest class of at least n bytes, or else from the next three up
// (at most twice n), so whatever a class hands out is large enough. A miss
// allocates the smallest class's size, at most a quarter more than was
// asked, so the slice goes back to the class it came from; a slice outside
// the classes is left to the collector. The classes are sync.Pools, so an
// idle process keeps nothing alive through them, each made by the first
// Put into it, so that an instance costs a pointer per class until then
// (a process keeps one instance per element type for its life); the
// *[]E boxes they hold are recycled through a pool of their own, so once
// warm neither a get nor a put allocates. E's size must be a power of
// two (a byte, a fixed-size number). The zero Pool is ready to use.
//
// Two kinds of storage come from instances of it: the payloads below,
// which carry remote-read data across goroutines (the owner's copy of each
// range, the joined reply the link writer ships, and the requester's
// reply, lent to the fetching VP until it releases it), and what a run of
// package core holds until it ends: its shared arrays and its phase
// scratch.
type Pool[E any] struct {
	classes [poolClasses]atomic.Pointer[sync.Pool] // *[]E, cap from classBytes(c) to below classBytes(c+1) bytes
	boxes   sync.Pool                              // empty *[]E
}

const (
	minPoolShift = 9
	maxPoolShift = 24
	// poolClasses counts four classes for each power of two from
	// 2^minPoolShift on, and 2^maxPoolShift itself.
	poolClasses = 4*(maxPoolShift-minPoolShift) + 1
	// poolReach is how many classes above its own a request looks in.
	poolReach = 3
)

// classBytes returns the size of class c: (4 + c%4) quarters of
// 2^(minPoolShift + c/4) bytes.
func classBytes(c int) int {
	return (4 + c%4) << (minPoolShift + c/4 - 2)
}

// classAt returns the class of b bytes, b at least 2^minPoolShift: the
// largest class of at most b bytes when up is false, the smallest of at
// least b bytes when up is true (which may be past the last class).
func classAt(b int, up bool) int {
	k := bits.Len(uint(b)) - 1 // 2^k <= b < 2^(k+1)
	q := b >> (k - 2)          // quarters of 2^k: 4 to 7
	if up && q<<(k-2) != b {
		q++ // 8 is the next power of two's first class
	}
	return 4*(k-minPoolShift) + q - 4
}

// elemShift is log2 of E's size.
func elemShift[E any]() int {
	var e E
	return bits.TrailingZeros(uint(unsafe.Sizeof(e)))
}

// class returns the class a request for n elements draws from, false for
// a request beyond the largest.
func (p *Pool[E]) class(n int) (int, bool) {
	c := classAt(max(n<<elemShift[E](), 1<<minPoolShift), true)
	return c, c < poolClasses
}

// take pops a slice of class c or of one of the poolReach classes above
// it, or returns nil when they are all empty.
func (p *Pool[E]) take(c int) []E {
	for top := min(c+poolReach, poolClasses-1); c <= top; c++ {
		cls := p.classes[c].Load()
		if cls == nil {
			continue
		}
		if box, _ := cls.Get().(*[]E); box != nil {
			b := *box
			*box = nil
			p.boxes.Put(box)
			return b
		}
	}
	return nil
}

// Get returns an empty slice with room for at least n elements, from the
// pool if its class or one just above holds one; otherwise it allocates
// the class's size. Put it when done.
func (p *Pool[E]) Get(n int) []E {
	c, ok := p.class(n)
	if !ok {
		return make([]E, 0, n)
	}
	if b := p.take(c); b != nil {
		return b
	}
	return make([]E, 0, classBytes(c)>>elemShift[E]())
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
	bytes := cap(b) << elemShift[E]()
	if bytes < 1<<minPoolShift || bytes >= 1<<(maxPoolShift+1) {
		return
	}
	box, _ := p.boxes.Get().(*[]E)
	if box == nil {
		box = new([]E)
	}
	*box = b[:0]
	cls := &p.classes[min(classAt(bytes, false), poolClasses-1)]
	if cls.Load() == nil {
		cls.CompareAndSwap(nil, new(sync.Pool))
	}
	cls.Load().Put(box)
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
