package wire

import (
	"testing"
	"unsafe"
)

// Whatever the pool holds, a buffer drawn for n bytes has room for n, and
// one drawn as a payload is exactly n long; a payload beyond the largest
// class is never drawn, and a buffer too small or too large to file is
// dropped, not filed where a larger request would draw it.
func TestPoolClasses(t *testing.T) {
	for _, b := range [][]byte{nil, make([]byte, 0, 100), make([]byte, 0, 511), make([]byte, 0, 4096), make([]byte, 5000), make([]byte, 0, 1<<25)} {
		PutBuf(b)
	}
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 4097, 5000, 1 << 20, 1 << 24} {
		b := GetBuf(n)
		if len(b) != 0 || cap(b) < n || cap(b) < 1<<minPoolShift {
			t.Errorf("GetBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		PutBuf(b)
		if p := PooledPayload(n); p != nil && len(p) != n {
			t.Errorf("PooledPayload(%d) is %d bytes", n, len(p))
		}
	}
	if b := GetBuf(1<<24 + 1); cap(b) != 1<<24+1 {
		t.Errorf("GetBuf above the largest class: cap %d, want exactly the request", cap(b))
	}
	if p := PooledPayload(MaxFrame); p != nil {
		t.Errorf("PooledPayload(MaxFrame) drew %d bytes", len(p))
	}
}

// A Pool of wider elements is classed by bytes too: a request for n
// float64s draws from the class of 8n bytes (65 of them, 520 bytes, from
// the 640-byte class), and one above 16 MiB is allocated outright.
func TestPoolClassesAreBytes(t *testing.T) {
	var p Pool[float64]
	for n, want := range map[int]int{0: 64, 1: 64, 64: 64, 65: 80, 81: 96, 4096: 4096, 1 << 21: 1 << 21, 1<<21 + 1: 1<<21 + 1} {
		if b := p.Get(n); len(b) != 0 || cap(b) != want {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), want)
		}
	}
	if b := p.Pooled(1<<21 + 1); b != nil {
		t.Errorf("Pooled above the largest class drew %d elements", len(b))
	}
}

// A miss allocates at most a quarter more than it was asked for: nbody's
// trees ask for 2,336,768 bytes, which a power-of-two class would round
// up to 4 MiB. Below the smallest class a miss allocates that class. And
// what a miss allocated goes back to the class the same request draws
// from, so that a Put followed by a Get of the same size hits, on a class
// edge and off it.
func TestPoolMissAllocatesNearTheRequest(t *testing.T) {
	sizes := []int{1, 511, 512, 513, 640, 700, 1000, 1024, 1025, 1280, 1281, 4096, 5000, 65537,
		2336768, 1 << 20, 1<<20 + 1, 3 << 20, 1<<24 - 1, 1 << 24}
	var p Pool[byte]
	for _, n := range sizes {
		b := p.Get(n)
		if limit := max(n+n/4, 1<<minPoolShift); len(b) != 0 || cap(b) < n || cap(b) > limit {
			t.Errorf("Get(%d) on an empty pool: len %d cap %d, want cap in [%d, %d]", n, len(b), cap(b), n, limit)
		}
		// sync.Pool may drop a Put (the race detector drops some on
		// purpose) or hand it to another P's Get: a few tries.
		hit := false
		for try := 0; try < 20 && !hit; try++ {
			p.Put(b)
			c := p.Get(n)
			hit = cap(c) == cap(b) && &c[:1][0] == &b[:1][0]
			b = c
		}
		if !hit {
			t.Errorf("Put then Get(%d): the pool never handed back the %d-byte buffer it filed", n, cap(b))
		}
	}
	var f Pool[float64]
	for _, n := range []int{1, 64, 65, 100, 292096, 1 << 21} {
		if b := f.Get(n); cap(b) < n || cap(b) > max(n+n/4, 64) {
			t.Errorf("float64 Get(%d) on an empty pool: cap %d, want cap in [%d, %d]", n, cap(b), n, max(n+n/4, 64))
		}
	}
}

// A Pool's classes are made on their first Put, so that an instance no
// one has put into costs its header of pointers and no class headers: a
// process holds one instance per element type for its life. A class made
// by a Put still hands the slice back to a Get of the same size, on a
// class edge and off it.
func TestPoolClassesMadeOnFirstPut(t *testing.T) {
	if size := unsafe.Sizeof(Pool[byte]{}); size > 600 {
		t.Errorf("an unused Pool is %d bytes, want at most 600", size)
	}
	for _, n := range []int{512, 700, 1024, 1025, 1 << 20, 3 << 20} {
		var p Pool[byte]
		b := p.Get(n)
		hit := false
		for try := 0; try < 20 && !hit; try++ {
			p.Put(b)
			c := p.Get(n)
			hit = &c[:1][0] == &b[:1][0]
			b = c
		}
		if !hit {
			t.Errorf("Get(%d) on a fresh pool after a Put never returned the slice put", n)
		}
	}
}
