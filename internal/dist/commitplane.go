package dist

import (
	"fmt"
	"sync"
	"time"

	"ppm/internal/wire"
)

// commitPlane assembles peers' phase-commit delta streams, each peer's
// reader appending its chunks where they belong. Exchanges are keyed by
// their ordinal on the mesh (wire.CommitHeader.Seq), so a fast peer's
// next-exchange chunks can arrive before this node finishes waiting on
// the current one, and a frame that arrives after its exchange completed
// is recognized as such even when the next job reuses the phase number.
type commitPlane struct {
	mu    sync.Mutex
	cond  *sync.Cond
	nodes int
	open  map[int64]*commitBuf
	// completed is the ordinal of the last exchange wait handed out:
	// frames at or below it are late repeats, and nothing legitimate is
	// more than two ahead of it (a peer cannot finish an exchange without
	// this rank's stream for it).
	completed int64
	// lent is the buffer whose streams the last wait handed out, until
	// release; pool holds the ones between uses. A lent buffer that is
	// never released is simply left to the collector.
	lent *commitBuf
	// released is the ordinal of the last exchange this rank released,
	// that is, applied: what a read request waits for in awaitRelease.
	released int64
	pool     sync.Pool
	tm       *time.Timer // the one wait deadline timer, see wakeAt
	// fatal is the engine's fatal error once the mesh died: a heartbeat
	// verdict, an EOF or a peer abort, naming the dead rank and operation.
	fatal error
}

// commitBuf is one exchange's incoming streams. It is recycled whole:
// data[src] keeps its capacity from one exchange to the next.
type commitBuf struct {
	phase int64
	data  [][]byte
	done  []bool
	nDone int
}

func (cp *commitPlane) init(nodes int) {
	cp.cond = sync.NewCond(&cp.mu)
	cp.nodes = nodes
	cp.open = make(map[int64]*commitBuf)
}

// next returns the ordinal of the exchange about to start.
func (cp *commitPlane) next() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.completed + 1
}

// buf returns the buffer of exchange seq, which every rank must be
// running as the same phase. Call with mu held.
func (cp *commitPlane) buf(seq, phase int64) (*commitBuf, error) {
	b := cp.open[seq]
	if b == nil {
		b, _ = cp.pool.Get().(*commitBuf)
		if b == nil {
			b = &commitBuf{data: make([][]byte, cp.nodes), done: make([]bool, cp.nodes)}
		}
		b.phase = phase
		cp.open[seq] = b
	}
	if b.phase != phase {
		return nil, fmt.Errorf("commit exchange %d is phase %d to one rank and phase %d to another: the ranks are out of step", seq, b.phase, phase)
	}
	return b, nil
}

// frameBuf returns the buffer a commit frame from src belongs to, or nil
// for a frame that arrived after its exchange completed (a duplicate:
// ignore it); an ordinal no peer can have reached is an error. Call with
// mu held.
func (cp *commitPlane) frameBuf(src int, h wire.CommitHeader) (*commitBuf, error) {
	if h.Seq <= cp.completed {
		return nil, nil
	}
	if h.Seq > cp.completed+2 {
		return nil, fmt.Errorf("rank %d sent a commit frame of phase %d as exchange %d while this rank has completed %d", src, h.Phase, h.Seq, cp.completed)
	}
	return cp.buf(h.Seq, h.Phase)
}

// commitTrustTotal is the largest announced stream total the plane
// allocates up front. Every honest stream of the benchmark's commit-heavy
// jobs is far below it, so it arrives in one allocation; a larger total
// buys memory only as its bytes arrive.
const commitTrustTotal = 1 << 20

// reserve places a chunk of n bytes at h.Off of src's stream and returns
// where the reader is to put it; nil means drop it (a repeat). The first
// chunk sizes the stream for its announced total if that is at most
// commitTrustTotal; a larger stream grows at least twofold, and by at
// least commitTrustTotal, whenever a chunk would overflow it, so a frame
// announcing a gigabyte costs a megabyte. Only src's reader appends to the
// stream, and the waiter does not see it before src's end, so the reader
// fills the reservation without the lock.
func (cp *commitPlane) reserve(src int, h wire.CommitHeader, n int) ([]byte, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, err := cp.frameBuf(src, h)
	if b == nil {
		return nil, err
	}
	s := b.data[src]
	switch {
	case b.done[src]:
		return nil, fmt.Errorf("rank %d sent %d more bytes of its phase %d commit stream after ending it at %d", src, n, h.Phase, len(s))
	case h.Off+n <= len(s):
		return nil, nil // lies wholly inside what is already here: a repeat
	case h.Off != len(s):
		return nil, fmt.Errorf("rank %d's phase %d commit stream continues at offset %d with %d bytes received: a frame was lost or cut", src, h.Phase, h.Off, len(s))
	case h.Off+n > h.Total:
		return nil, fmt.Errorf("rank %d's phase %d commit stream overruns its announced %d bytes by %d", src, h.Phase, h.Total, h.Off+n-h.Total)
	}
	end := h.Off + n
	if cap(s) < end {
		size := h.Total
		if size > commitTrustTotal {
			size = min(h.Total, max(end, 2*cap(s), commitTrustTotal))
		}
		s = append(make([]byte, 0, size), s...)
	}
	s = s[:end]
	b.data[src] = s
	return s[h.Off:], nil
}

// end marks src's stream complete at h.Total bytes.
func (cp *commitPlane) end(src int, h wire.CommitHeader) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	b, err := cp.frameBuf(src, h)
	if b == nil {
		return err
	}
	if got := len(b.data[src]); got != h.Total {
		return fmt.Errorf("rank %d ended its phase %d commit stream at %d bytes with %d received: a frame was lost or cut", src, h.Phase, h.Total, got)
	}
	if !b.done[src] {
		b.done[src] = true
		b.nDone++
		cp.cond.Broadcast()
	}
	return nil
}

// wait blocks until every peer's stream of exchange seq is complete and
// returns them indexed by source, lent until release. The deadline timer
// is armed only if the streams are not all here yet.
func (cp *commitPlane) wait(seq, phase int64, self int, timeout time.Duration) ([][]byte, error) {
	var deadline time.Time
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for {
		b, err := cp.buf(seq, phase)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d: %w", self, err)
		}
		if b.nDone == cp.nodes-1 {
			delete(cp.open, seq)
			cp.completed = seq
			cp.lent = b
			if !deadline.IsZero() {
				cp.tm.Stop()
			}
			return b.data, nil
		}
		if cp.fatal != nil {
			return nil, cp.fatal
		}
		if timeout > 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(timeout)
				cp.tm = wakeAt(cp.tm, timeout, &cp.mu, cp.cond)
			} else if !time.Now().Before(deadline) {
				var missing []int
				for n := 0; n < cp.nodes; n++ {
					if n != self && !b.done[n] {
						missing = append(missing, n)
					}
				}
				return nil, fmt.Errorf("dist: rank %d: commit of phase %d timed out after %v waiting for rank(s) %v",
					self, phase, timeout, missing)
			}
		}
		cp.cond.Wait()
	}
}

// release takes back the streams the last wait handed out.
func (cp *commitPlane) release(in [][]byte) {
	cp.mu.Lock()
	b := cp.lent
	if b == nil || len(in) == 0 || &in[0] != &b.data[0] {
		cp.mu.Unlock()
		return
	}
	cp.lent = nil
	cp.released = cp.completed
	cp.mu.Unlock()
	cp.cond.Broadcast()
	for src := range b.data {
		b.data[src] = b.data[src][:0]
		b.done[src] = false
	}
	b.nDone = 0
	cp.pool.Put(b)
}

// awaitRelease blocks until this rank has released exchange seq, or a
// later one, and returns the fatal error instead if the mesh dies first.
// A read request that arrives behind the peer's stream of exchange seq
// waits here: until the release, this rank may not have applied what that
// stream carried, and its memory mutex stays free while it waits in the
// exchange, so the read server would answer from before the apply.
func (cp *commitPlane) awaitRelease(seq int64) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for cp.released < seq {
		if cp.fatal != nil {
			return cp.fatal
		}
		cp.cond.Wait()
	}
	return nil
}

func (cp *commitPlane) kill(fatal error) {
	cp.mu.Lock()
	cp.fatal = fatal
	cp.mu.Unlock()
	cp.cond.Broadcast()
}
