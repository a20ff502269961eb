package wire

import "testing"

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
// float64s draws from the class of 8n bytes, and one above 16 MiB is
// allocated outright.
func TestPoolClassesAreBytes(t *testing.T) {
	var p Pool[float64]
	for n, want := range map[int]int{0: 64, 1: 64, 64: 64, 65: 128, 4096: 4096, 1 << 21: 1 << 21, 1<<21 + 1: 1<<21 + 1} {
		if b := p.Get(n); len(b) != 0 || cap(b) != want {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), want)
		}
	}
	if b := p.Pooled(1<<21 + 1); b != nil {
		t.Errorf("Pooled above the largest class drew %d elements", len(b))
	}
}
