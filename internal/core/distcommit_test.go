package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/cluster"
	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/wire"
)

// loopMesh is an in-process stand-in for the TCP mesh: N loopEngines that
// exchange messages, reads and commit streams through shared memory. It
// is what lets core test its side of the DistEngine contract — here, who
// may hold a commit stream when — without sockets.
type loopMesh struct {
	mu   sync.Mutex
	cond *sync.Cond
	engs []*loopEngine
	// commits[phase][src][dst] is the stream src shipped dst; an exchange
	// returns once every rank has shipped its own.
	commits map[int64][][][]byte
}

type loopEngine struct {
	m        *loopMesh
	rank     int
	mail     []*cluster.Message
	server   func(array, lo, hi int) ([]byte, error)
	lent     [][]byte // what the last CommitExchange returned, until released
	released int
	// exchanged counts this rank's CommitExchange calls: a read it sends
	// waits until the owner has released as many (DistEngine's contract).
	exchanged int
	// reqs is every read request this rank sent, ranges in request order;
	// fetchDelay, if set, holds each one in flight that long.
	reqs       [][]wire.ReadRange
	fetchDelay time.Duration
	// replies counts the read replies this rank was lent, readsReleased
	// those it handed back (DistEngine.ReleaseRead).
	replies, readsReleased atomic.Int64
	collGen                int
}

func newLoopMesh(nodes int) *loopMesh {
	m := &loopMesh{commits: make(map[int64][][][]byte)}
	m.cond = sync.NewCond(&m.mu)
	for r := 0; r < nodes; r++ {
		m.engs = append(m.engs, &loopEngine{m: m, rank: r})
	}
	return m
}

func (e *loopEngine) Rank() int             { return e.rank }
func (e *loopEngine) Nodes() int            { return len(e.m.engs) }
func (e *loopEngine) Procs() int            { return len(e.m.engs) }
func (e *loopEngine) Endpoint() mp.Endpoint { return e }
func (e *loopEngine) CollectiveGen() *int   { return &e.collGen }
func (e *loopEngine) ChargeFlops(int64)     {}
func (e *loopEngine) Abort(error)           {}
func (e *loopEngine) WireStats() WireStats  { return WireStats{} }

func (e *loopEngine) CommitCodec(int) wire.Codec     { return wire.CodecRaw }
func (e *loopEngine) PeerCommitCodec(int) wire.Codec { return wire.CodecRaw }

func (e *loopEngine) Send(dst, tag int, payload any, bytes int) {
	data, isNil := mp.MarshalPayload(payload)
	msg := &cluster.Message{Src: e.rank, Tag: tag, Bytes: len(data)}
	if !isNil {
		msg.Payload = mp.RawPayload(data)
	}
	e.m.mu.Lock()
	e.m.engs[dst].mail = append(e.m.engs[dst].mail, msg)
	e.m.mu.Unlock()
	e.m.cond.Broadcast()
}

func (e *loopEngine) Recv(src, tag int) *cluster.Message {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	for {
		for i, msg := range e.mail {
			if (src == cluster.AnySource || src == msg.Src) && (tag == cluster.AnyTag || tag == msg.Tag) {
				e.mail = append(e.mail[:i], e.mail[i+1:]...)
				return msg
			}
		}
		e.m.cond.Wait()
	}
}

func (e *loopEngine) SetReadServer(fn func(array, lo, hi int) ([]byte, error)) {
	e.m.mu.Lock()
	e.server = fn
	e.m.mu.Unlock()
}

func (e *loopEngine) Fetch(array, owner, lo, hi int) ([]byte, error) {
	return e.FetchRanges(owner, []wire.ReadRange{{Array: array, Lo: lo, Hi: hi}})
}

func (e *loopEngine) FetchRanges(owner int, ranges []wire.ReadRange) ([]byte, error) {
	e.m.mu.Lock()
	for e.m.engs[owner].released < e.exchanged {
		e.m.cond.Wait()
	}
	server := e.m.engs[owner].server
	e.reqs = append(e.reqs, slices.Clone(ranges))
	e.m.mu.Unlock()
	time.Sleep(e.fetchDelay)
	var reply []byte
	for _, r := range ranges {
		data, err := server(r.Array, r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		reply = append(reply, data...)
		wire.PutBuf(data) // the server's copy is the engine's
	}
	e.replies.Add(1)
	return reply, nil
}

func (e *loopEngine) ReleaseRead([]byte) { e.readsReleased.Add(1) }

// CommitExchange copies the outgoing streams (the borrow ends at return,
// like the real engine's) and hands out private copies of the incoming
// ones, which ReleaseCommit then scribbles over: a reference core kept
// past the release would read garbage.
func (e *loopEngine) CommitExchange(phase int64, outgoing [][]byte) ([][]byte, error) {
	n := len(e.m.engs)
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	all := e.m.commits[phase]
	if all == nil {
		all = make([][][]byte, n)
		e.m.commits[phase] = all
	}
	mine := make([][]byte, n)
	for dst, s := range outgoing {
		mine[dst] = append([]byte(nil), s...)
	}
	all[e.rank] = mine
	e.exchanged++
	e.m.cond.Broadcast()
	in := make([][]byte, n)
	for src := 0; src < n; src++ {
		for all[src] == nil {
			e.m.cond.Wait()
		}
		if src != e.rank {
			in[src] = append([]byte(nil), all[src][e.rank]...)
		}
	}
	e.lent = in
	return in, nil
}

func (e *loopEngine) ReleaseCommit(in [][]byte) {
	if len(in) == 0 || len(e.lent) == 0 || &in[0] != &e.lent[0] {
		panic(fmt.Sprintf("core released %p, the last exchange returned %p", in, e.lent))
	}
	for _, s := range in {
		for i := range s {
			s[i] = 0xFF
		}
	}
	e.lent = nil
	e.m.mu.Lock()
	e.released++
	e.m.mu.Unlock()
	e.m.cond.Broadcast()
}

// TestReadPathReleasesEveryReply: every read reply the engine lends core
// comes back through ReleaseRead once it is installed, on both fetch
// paths: a VP's demand miss (fetchRuns) and a replayed plan's prefetch at
// phase open (fetchInstall). What the VPs read is the owner's data.
func TestReadPathReleasesEveryReply(t *testing.T) {
	const nodes, iters, n = 2, 4, 4096
	mesh := newLoopMesh(nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic()}
			_, errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
				x := AllocGlobal[float64](rt, "x", n)
				lo, hi := x.OwnerRange(rt)
				for i := lo; i < hi; i++ {
					x.Local(rt)[i-lo] = float64(i)
				}
				for it := 0; it < iters; it++ {
					rt.Do(2, func(vp *VP) {
						vp.GlobalPhase(func() {
							block := make([]float64, 40)
							olo, _ := ChunkRange(n, nodes, 1-vp.Node())
							at := olo + 600*vp.NodeRank()
							x.ReadBlock(vp, at, at+len(block), block)
							for k, v := range block {
								if v != float64(at+k) {
									panic(fmt.Sprintf("x[%d] read as %v", at+k, v))
								}
							}
						})
					})
				}
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, e := range mesh.engs {
		lent, back := e.replies.Load(), e.readsReleased.Load()
		if lent == 0 || back != lent {
			t.Errorf("rank %d handed back %d of the %d replies it was lent", r, back, lent)
		}
		multi := 0
		for _, req := range e.reqs {
			if len(req) > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Errorf("rank %d sent no request for several ranges: no plan prefetch ran (%d requests)", r, len(e.reqs))
		}
	}
}

// TestCommitStreamsReleasedAndUnpinned: a mesh commitGlobal hands every
// incoming stream back to the engine after the apply, once per exchange,
// and by then no cursor of the doRun — which a warm session caches for
// the fleet's lifetime — still references one.
func TestCommitStreamsReleasedAndUnpinned(t *testing.T) {
	const nodes, phases, n = 3, 4, 96
	mesh := newLoopMesh(nodes)
	sessions := make([]*WarmSession, nodes)
	parts := make([][]float64, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for r := 0; r < nodes; r++ {
		sessions[r] = NewWarmSession()
		sessions[r].SetKey("job")
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic(), Warm: sessions[r]}
			_, errs[r] = RunDist(opt, mesh.engs[r], func(rt *Runtime) {
				g := AllocGlobal[float64](rt, "acc", n)
				for it := 0; it < phases; it++ {
					rt.Do(2, func(vp *VP) {
						vp.GlobalPhase(func() {
							// Every VP adds into the next node's partition:
							// each rank receives one non-empty stream.
							lo, hi := ChunkRange(n, nodes, (vp.Node()+1)%nodes)
							for i := lo; i < hi; i++ {
								g.Add(vp, i, float64(1+vp.GlobalRank()))
							}
						})
					})
				}
				parts[r] = append([]float64(nil), g.Local(rt)...)
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < nodes; r++ {
		// Rank r's partition took phases x (the two VPs of rank r-1), whose
		// global ranks are 2(r-1) and 2(r-1)+1.
		prev := (r + nodes - 1) % nodes
		want := float64(phases * (1 + 2*prev + 2 + 2*prev))
		for i, v := range parts[r] {
			if v != want {
				t.Fatalf("rank %d element %d = %v, want %v: a released stream was still being read", r, i, v, want)
			}
		}
		if got := mesh.engs[r].released; got != phases {
			t.Errorf("rank %d released %d of %d exchanges", r, got, phases)
		}
		if len(sessions[r].warm) == 0 {
			t.Fatalf("rank %d: the warm session cached no doRun to inspect", r)
		}
		for _, d := range sessions[r].warm {
			for src := range d.ccurs {
				c := &d.ccurs[src]
				// CommitReader keeps its stream private; its slice header
				// is all this needs to see.
				if data := reflect.ValueOf(&c.rd).Elem().FieldByName("data"); !data.IsNil() {
					t.Errorf("rank %d: cached doRun's cursor for source %d still references a %d-byte stream", r, src, data.Len())
				}
				if c.live || c.valid {
					t.Errorf("rank %d: cursor for source %d left live=%v valid=%v", r, src, c.live, c.valid)
				}
			}
		}
	}
}

// The simulator encodes its remote-bound writes in the wire commit
// grammar too, but nothing crosses a wire: NodeStats.Wire stays zero
// while the modeled remote traffic is counted as before.
func TestSimulatorKeepsWireStatsZero(t *testing.T) {
	const nodes, n = 3, 90
	rep := mustRun(t, Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Generic()}, func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "acc", n)
		rt.Do(2, func(vp *VP) {
			vp.GlobalPhase(func() {
				lo, hi := ChunkRange(n, nodes, (vp.Node()+1)%nodes)
				for i := lo; i < hi; i += 3 {
					g.Add(vp, i, 1)
				}
			})
		})
	})
	for node, s := range rep.PerNode {
		if s.RemoteWriteElems == 0 || s.BundlesIn == 0 {
			t.Errorf("node %d: no remote writes counted: %+v", node, s)
		}
		if s.Wire != (WireStats{}) {
			t.Errorf("node %d: wire counters under the simulator: %+v", node, s.Wire)
		}
	}
}
