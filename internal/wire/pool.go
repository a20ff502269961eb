package wire

import (
	"math/bits"
	"sync"
)

// The payload pool recycles the byte buffers that carry remote-read data
// across goroutines: the owner's copy of each range, the joined reply the
// link writer ships, and the requester's reply, lent to the fetching VP
// until it releases it. Buffers are filed by size class, a power of two
// from 512 bytes to 16 MiB: a buffer of capacity c sits in class
// floor(log2 c) and a request for n bytes draws from class ceil(log2 n),
// so whatever a class hands out is large enough. A buffer outside the
// classes is left to the collector. The classes are sync.Pools, so an
// idle process keeps nothing alive through them; the *[]byte boxes they
// hold are recycled through a pool of their own, so once warm neither a
// get nor a put allocates.
const (
	minPoolShift = 9
	maxPoolShift = 24
)

var (
	poolClasses [maxPoolShift - minPoolShift + 1]sync.Pool // *[]byte, cap in [2^k, 2^(k+1))
	poolBoxes   sync.Pool                                  // empty *[]byte
)

// getClass returns the class a request for n bytes draws from, false for
// a request beyond the largest.
func getClass(n int) (int, bool) {
	k := max(bits.Len(uint(max(n, 1)-1)), minPoolShift)
	return k - minPoolShift, k <= maxPoolShift
}

// take pops a buffer of class c, or nil when the class is empty.
func take(c int) []byte {
	box, _ := poolClasses[c].Get().(*[]byte)
	if box == nil {
		return nil
	}
	b := *box
	*box = nil
	poolBoxes.Put(box)
	return b
}

// GetBuf returns an empty buffer with room for at least n bytes, from the
// pool if its class holds one; otherwise it allocates the class's size,
// so the buffer goes back to the class it came from. PutBuf it when done.
func GetBuf(n int) []byte {
	c, ok := getClass(n)
	if !ok {
		return make([]byte, 0, n)
	}
	if b := take(c); b != nil {
		return b
	}
	return make([]byte, 0, 1<<(c+minPoolShift))
}

// PooledPayload returns a pooled buffer of length n for a frame payload
// about to be read, or nil when the pool has none: it never allocates,
// so a reader that gets nil grows the payload as its bytes arrive
// (AppendPayload), and a length prefix alone still buys no memory.
func PooledPayload(n int) []byte {
	c, ok := getClass(n)
	if !ok {
		return nil
	}
	if b := take(c); b != nil {
		return b[:n]
	}
	return nil
}

// PutBuf hands b to the pool. The caller must hold the only reference:
// whoever draws it next overwrites it.
func PutBuf(b []byte) {
	k := bits.Len(uint(cap(b))) - 1
	if k < minPoolShift || k > maxPoolShift {
		return
	}
	box, _ := poolBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	poolClasses[k-minPoolShift].Put(box)
}
