package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/cluster"
	"ppm/internal/core"
	"ppm/internal/mp"
	"ppm/internal/wire"
)

// A global phase on the mesh is two exchanges: the doK exchange that
// opens it and the commit exchange that closes it. No barrier follows the
// apply, so a rank can leave a phase while a peer is still waiting in its
// commit exchange with its partitions unapplied. These tests pin what
// that must not cost (a node-level read still sees every apply) and what
// it buys (one message from each peer per phase).

// slowCommit holds CommitExchange back after the exchange itself is
// done: the rank sits between "every stream is here" and its apply, with
// its memory mutex still released, for delay.
type slowCommit struct {
	*Engine
	delay time.Duration
}

func (s slowCommit) CommitExchange(phase int64, outgoing [][]byte) ([][]byte, error) {
	in, err := s.Engine.CommitExchange(phase, outgoing)
	time.Sleep(s.delay)
	return in, err
}

// TestNodeReadAfterPhaseSeesApply writes a whole array from rank 0 in one
// global phase, two thirds of it into rank 1's and rank 2's partitions,
// and reads it back at node level with no barrier in between, while rank
// 1 lags 100 ms behind the exchange before it applies. The owner must not
// answer the read from its unapplied partition: a read request that
// follows a commit stream on the link is served only once the owner has
// released that exchange.
func TestNodeReadAfterPhaseSeesApply(t *testing.T) {
	const nodes, n, k = 3, 96, 4
	got := make([]int64, n)
	runMeshWith(t, nodes, quietMesh, func(rank int, eng *Engine) error {
		var de core.DistEngine = eng
		if rank == 1 {
			de = slowCommit{eng, 100 * time.Millisecond}
		}
		_, err := core.RunDist(distOpt(nodes), de, func(rt *core.Runtime) {
			x := core.AllocGlobal[int64](rt, "x", n)
			rt.Do(k, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					if vp.Node() != 0 {
						return
					}
					for i := vp.NodeRank(); i < n; i += k {
						x.Write(vp, i, int64(i+1))
					}
				})
			})
			if rt.NodeID() == 0 {
				for i := range got {
					got[i] = x.At(rt, i)
				}
			}
		})
		return err
	})
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("x[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestNodeReadsAfterLastPhaseCross: two ranks that each read the other's
// partition at node level after their last phase both get the values the
// simulator returns, and neither read times out. Each rank blocks
// in its own fetch at node level, so each must serve the other's request
// meanwhile; when a waiting node-level read held its memory lock for
// writing, neither could, and both failed at the timeout.
func TestNodeReadsAfterLastPhaseCross(t *testing.T) {
	const nodes, n, k = 2, 4096, 2
	prog := func(out []float64) func(rt *core.Runtime) {
		return func(rt *core.Runtime) {
			g := core.AllocGlobal[float64](rt, "g", n)
			lo, hi := g.OwnerRange(rt)
			for i, l := 0, g.Local(rt); i < len(l); i++ {
				l[i] = float64(lo+i) + 0.5
			}
			rt.Do(k, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					for i := lo + vp.NodeRank(); i < hi; i += k {
						g.Write(vp, i, 3*g.Read(vp, i))
					}
				})
			})
			next := (rt.NodeID() + 1) % rt.NodeCount()
			out[rt.NodeID()] = g.At(rt, next*(n/nodes)+7)
		}
	}
	want := make([]float64, nodes)
	if _, err := core.Run(distOpt(nodes), prog(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, nodes)
	runMeshWith(t, nodes, func(rank int, c *Config) {
		quietMesh(rank, c)
		c.OpTimeout = 3 * time.Second
	}, func(rank int, eng *Engine) error {
		_, err := core.RunDist(distOpt(nodes), eng, prog(got))
		return err
	})
	for r := range got {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Errorf("rank %d read %v, want the simulator's %v", r, got[r], want[r])
		}
	}
}

// recvCounter counts the node-level receives core makes through the
// engine's endpoint.
type recvCounter struct {
	*Engine
	n *atomic.Int64
}

func (c recvCounter) Endpoint() mp.Endpoint { return countingEndpoint{c.Engine, c.n} }

type countingEndpoint struct {
	mp.Endpoint
	n *atomic.Int64
}

func (p countingEndpoint) Recv(src, tag int) *cluster.Message {
	p.n.Add(1)
	return p.Endpoint.Recv(src, tag)
}

// TestGlobalPhaseExchanges counts the messages a rank waits for over a
// 64-phase loop: one from each peer per global phase (its doK), plus the
// exit barrier's ceil(log2 P) rounds once per run. The commit exchange
// travels as commit frames, not messages. Before the closing barrier was
// removed and the doK ring became a direct exchange, a phase cost 2
// receives at 2 ranks and 4 at 3 ranks.
func TestGlobalPhaseExchanges(t *testing.T) {
	const phases, k = 64, 2
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			recvs := make([]atomic.Int64, nodes)
			runMeshWith(t, nodes, quietMesh, func(rank int, eng *Engine) error {
				_, err := core.RunDist(distOpt(nodes), recvCounter{eng, &recvs[rank]}, func(rt *core.Runtime) {
					x := core.AllocGlobal[int64](rt, "x", nodes*k)
					rt.Do(k, func(vp *core.VP) {
						for p := 0; p < phases; p++ {
							vp.GlobalPhase(func() {
								x.Write(vp, vp.GlobalRank(), int64(p))
							})
						}
					})
				})
				return err
			})
			exitBarrier := bits.Len(uint(nodes - 1)) // ceil(log2 nodes)
			want := int64(phases*(nodes-1) + exitBarrier)
			for rank := range recvs {
				if got := recvs[rank].Load(); got != want {
					t.Errorf("rank %d: %d receives over %d global phases, want %d (%d per phase and %d for the exit barrier)",
						rank, got, phases, want, nodes-1, exitBarrier)
				}
			}
		})
	}
}

// TestCommitPlaneAwaitRelease: the read guard's wait returns at once for
// an exchange already released, blocks until the release otherwise, and
// comes back with the fatal error when the mesh dies instead.
func TestCommitPlaneAwaitRelease(t *testing.T) {
	var cp commitPlane
	cp.init(2)
	exchange := func(seq int64) [][]byte {
		t.Helper()
		if err := cp.end(1, wire.CommitHeader{Seq: seq, Phase: seq}); err != nil {
			t.Fatal(err)
		}
		in, err := cp.wait(seq, seq, 0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	returns := func(what string, got <-chan error) error {
		t.Helper()
		select {
		case err := <-got:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the wait never returned", what)
			return nil
		}
	}
	blocks := func(what string, got <-chan error) {
		t.Helper()
		select {
		case err := <-got:
			t.Fatalf("%s: the wait returned (err %v) before the release", what, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	await := func(seq int64) <-chan error {
		got := make(chan error, 1)
		go func() { got <- cp.awaitRelease(seq) }()
		return got
	}

	if err := returns("before any exchange", await(0)); err != nil {
		t.Fatal(err)
	}
	in := exchange(1)
	got := await(1)
	blocks("exchange 1 handed out", got)
	cp.release(in)
	if err := returns("exchange 1 released", got); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int64{0, 1} {
		if err := returns(fmt.Sprintf("exchange %d already released", seq), await(seq)); err != nil {
			t.Fatal(err)
		}
	}

	in = exchange(2)
	got = await(2)
	blocks("exchange 2 handed out", got)
	dead := errors.New("mesh died")
	cp.kill(dead)
	if err := returns("mesh killed", got); err != dead {
		t.Fatalf("wait after kill = %v, want %v", err, dead)
	}
	if err := returns("mesh already dead", await(2)); err != dead {
		t.Fatalf("wait on a dead mesh = %v, want %v", err, dead)
	}
	cp.release(in)
}

// TestRepeatedCommitEndKeepsLinkTag: a CommitEnd the link repeats after
// later exchanges (the fault plan's dup) does not move the tag the link's
// reader puts on read requests back to the older exchange.
func TestRepeatedCommitEndKeepsLinkTag(t *testing.T) {
	eng, conn := rawPeer(t, nil)
	ends := make([][]byte, 3)
	for seq := int64(1); seq <= 2; seq++ {
		ends[seq] = wire.AppendCommitEnd(nil, wire.CommitHeader{Seq: seq, Phase: seq})
		if _, err := conn.Write(ends[seq]); err != nil {
			t.Fatal(err)
		}
		in, err := eng.CommitExchange(seq, make([][]byte, 2))
		if err != nil {
			t.Fatal(err)
		}
		eng.ReleaseCommit(in)
	}
	// The repeat, then a message: once the message is in, the reader has
	// dealt with the repeat before it.
	if _, err := conn.Write(append(ends[1], wire.AppendFrame(nil, wire.KindMsg, wire.EncodeMsg(5, nil, false))...)); err != nil {
		t.Fatal(err)
	}
	eng.Recv(1, 5)
	if got := eng.links[1].endSeq; got != 2 {
		t.Fatalf("link tag after a repeated end of exchange 1 = %d, want 2", got)
	}
}
