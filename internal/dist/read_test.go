package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/core"
	"ppm/internal/mp"
	"ppm/internal/wire"
)

// rangeBytes is the test read server's answer for one range: hi-lo
// little-endian uint32 values array<<16|index, so a reply's position and
// content both say which range it answers.
func rangeBytes(array, lo, hi int) []byte {
	var b []byte
	for i := lo; i < hi; i++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(array<<16|i))
	}
	return b
}

// TestFetchRangesOneRoundTrip checks the vectored read end to end on a
// real mesh: any number of ranges travel as one request and one reply,
// the owner's read server runs once per range, the reply is the ranges'
// bytes in request order, and Fetch is the same path with one range.
func TestFetchRangesOneRoundTrip(t *testing.T) {
	var served atomic.Int64
	done := make(chan struct{})
	noPings := func(rank int, c *Config) { c.HeartbeatInterval = -1 } // the frame counts below are exact
	runMeshWith(t, 2, noPings, func(rank int, eng *Engine) error {
		eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
			served.Add(1)
			return rangeBytes(array, lo, hi), nil
		})
		if rank == 1 {
			<-done
			return nil
		}
		defer close(done)
		for _, ranges := range [][]wire.ReadRange{
			{{Array: 3, Lo: 0, Hi: 8}},
			{{Array: 1, Lo: 5, Hi: 6}, {Array: 0, Lo: 100, Hi: 164}, {Array: 1, Lo: 7, Hi: 7}, {Array: 2, Lo: 0, Hi: 3}},
		} {
			before, servedBefore := eng.WireStats(), served.Load()
			got, err := eng.FetchRanges(1, ranges)
			if err != nil {
				return err
			}
			var want []byte
			for _, r := range ranges {
				want = append(want, rangeBytes(r.Array, r.Lo, r.Hi)...)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("reply for %v is %d bytes %x, want %d bytes %x", ranges, len(got), got, len(want), want)
			}
			after := eng.WireStats()
			if n := after.ReadReqsSent - before.ReadReqsSent; n != 1 {
				return fmt.Errorf("%d ranges took %d read requests, want 1", len(ranges), n)
			}
			if n := after.FramesOut - before.FramesOut; n != 1 {
				return fmt.Errorf("%d ranges took %d outgoing frames, want 1", len(ranges), n)
			}
			if n := served.Load() - servedBefore; n != int64(len(ranges)) {
				return fmt.Errorf("read server ran %d times for %d ranges", n, len(ranges))
			}
		}
		one, err := eng.Fetch(3, 1, 2, 4)
		if err != nil {
			return err
		}
		if !bytes.Equal(one, rangeBytes(3, 2, 4)) {
			return fmt.Errorf("Fetch reply %x", one)
		}
		if none, err := eng.FetchRanges(1, nil); err != nil || none != nil {
			return fmt.Errorf("empty FetchRanges = (%x, %v), want nothing and no traffic", none, err)
		}
		return nil
	})
}

// TestFetchRangesConcurrent has many goroutines fetch through one engine
// at once, as VPs do on cold misses: replies must reach their own
// requesters although reply slots and timers are reused between reads.
func TestFetchRangesConcurrent(t *testing.T) {
	done := make(chan struct{})
	runMesh(t, 2, func(rank int, eng *Engine) error {
		eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
			return rangeBytes(array, lo, hi), nil
		})
		if rank == 1 {
			<-done
			return nil
		}
		defer close(done)
		const workers, reads = 8, 200
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < reads; i++ {
					ranges := []wire.ReadRange{{Array: w, Lo: i, Hi: i + 3}, {Array: w + 100, Lo: 2 * i, Hi: 2*i + 1}}
					got, err := eng.FetchRanges(1, ranges)
					if err != nil {
						errs[w] = err
						return
					}
					want := append(rangeBytes(w, i, i+3), rangeBytes(w+100, 2*i, 2*i+1)...)
					if !bytes.Equal(got, want) {
						errs[w] = fmt.Errorf("worker %d read %d got another read's reply: %x, want %x", w, i, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// TestReadReplyPoolsCopies: serving a 3-range request joins the read
// server's three copies, in request order, into one reply drawn from
// wire's pool and hands the copies back to it; a one-range request sends
// its copy as it is. Once the pool is warm, and the writer recycles each
// reply as it does, a request of either kind allocates nothing. A range
// the server refuses fails the request, and the copies made before it go
// back too.
func TestReadReplyPoolsCopies(t *testing.T) {
	src := rangeBytes(0, 0, 4096)
	server := func(array, lo, hi int) ([]byte, error) {
		if hi > 4096 {
			return nil, fmt.Errorf("range [%d:%d) refused", lo, hi)
		}
		return append(wire.GetBuf(4*(hi-lo)), src[4*lo:4*hi]...), nil // a pooled copy, as core's server makes
	}
	three := []wire.ReadRange{{Lo: 0, Hi: 1024}, {Lo: 2048, Hi: 3072}, {Lo: 100, Hi: 612}}
	var parts [][]byte
	reply, parts, err := readReply(server, three, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(rangeBytes(0, 0, 1024), rangeBytes(0, 2048, 3072)...), rangeBytes(0, 100, 612)...)
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply is %d bytes and not the ranges in request order", len(reply))
	}
	wire.PutBuf(reply)
	for i, p := range parts[:cap(parts)] {
		if p != nil {
			t.Fatalf("the scratch still holds range %d's copy", i)
		}
	}
	if reply, parts, err = readReply(server, append(three[:1:1], wire.ReadRange{Lo: 4000, Hi: 5000}), parts); err == nil || reply != nil {
		t.Fatalf("refused range: reply of %d bytes, err %v", len(reply), err)
	}
	if raceEnabled {
		return // the race detector's pools drop what they are handed
	}
	for _, ranges := range [][]wire.ReadRange{three, three[:1]} {
		if got := testing.AllocsPerRun(100, func() {
			reply, parts, _ = readReply(server, ranges, parts)
			wire.PutBuf(reply)
		}); got != 0 {
			t.Errorf("a warm %d-range request allocated %v times, want 0", len(ranges), got)
		}
	}
}

// TestLateReadReplyIsRecycled: a reply that arrives after its fetch gave
// up, or a second copy of one, finds nobody waiting for its id. It goes
// back to the pool and never to another fetch. Rank 1's read server
// holds the first request until rank 0's fetch of it has timed out; the
// fetches rank 0 sends next are answered behind the late reply on the
// same link, and must each return exactly their own ranges' bytes.
func TestLateReadReplyIsRecycled(t *testing.T) {
	const opTimeout = 100 * time.Millisecond
	for _, tc := range []struct{ name, faults string }{
		{"late", ""},
		{"late and duplicated", "dup=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int64
			done, timedOut := make(chan struct{}), make(chan struct{})
			runMeshWith(t, 2, func(rank int, c *Config) {
				quietMesh(rank, c)
				c.OpTimeout = opTimeout
				if rank == 1 && tc.faults != "" {
					c.Faults = mustPlan(t, tc.faults, rank) // every frame rank 1 sends goes twice
				}
			}, func(rank int, eng *Engine) error {
				eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
					if served.Add(1) == 1 {
						<-timedOut
					}
					return append(wire.GetBuf(4*(hi-lo)), rangeBytes(array, lo, hi)...), nil
				})
				if rank == 1 {
					<-done
					return nil
				}
				defer close(done)
				_, err := eng.Fetch(0, 1, 0, 1024)
				close(timedOut)
				if err == nil || !strings.Contains(err.Error(), "timed out after") {
					return fmt.Errorf("first fetch: err = %v, want it to time out", err)
				}
				for i := 1; i <= 20; i++ {
					got, err := eng.FetchRanges(1, []wire.ReadRange{{Array: i, Lo: i, Hi: i + 1024}})
					if err != nil {
						return err
					}
					if want := rangeBytes(i, i, i+1024); !bytes.Equal(got, want) {
						return fmt.Errorf("fetch %d returned %d bytes, not its own range's %d", i, len(got), len(want))
					}
					eng.ReleaseRead(got)
				}
				eng.pendMu.Lock()
				defer eng.pendMu.Unlock()
				if len(eng.pend) != 0 {
					return fmt.Errorf("%d fetches still pending after every reply", len(eng.pend))
				}
				return nil
			})
		})
	}
}

// TestReadServerErrorAbortsNamingRange: when the installed read server
// refuses one range of a request (core refuses ranges outside the
// partition it owns), the owner aborts the fleet with the refusal, and
// the requester's read fails with it instead of waiting out OpTimeout.
func TestReadServerErrorAbortsNamingRange(t *testing.T) {
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			c.OpTimeout = 20 * time.Second // the abort, not the deadline, must end the read
			c.DrainTimeout = 100 * time.Millisecond
		},
		func(rank int, eng *Engine) error {
			eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
				if hi > 50 {
					return nil, fmt.Errorf("remote read of x[%d:%d) outside node 1's partition [0:50)", lo, hi)
				}
				return rangeBytes(array, lo, hi), nil
			})
			if rank == 1 {
				<-eng.fatalCh
				return nil
			}
			_, err := eng.FetchRanges(1, []wire.ReadRange{{Array: 0, Lo: 0, Hi: 10}, {Array: 0, Lo: 40, Hi: 60}})
			return err
		})
	if errs[0] == nil {
		t.Fatal("read of a refused range returned no error")
	}
	for _, want := range []string{"x[40:60)", "serving read for rank 0"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("requester's error %q lacks %q", errs[0], want)
		}
	}
}

// TestMalformedReadReqIsProtocolFatal feeds the owner's demultiplexer
// hand-built ReadReq frames no encoder produces; each must kill the mesh
// with a protocol error naming the sender, not reach the read server.
func TestMalformedReadReqIsProtocolFatal(t *testing.T) {
	good := wire.EncodeReadReq(1, []wire.ReadRange{{Array: 0, Lo: 0, Hi: 4}})
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"no ranges", good[:8]},
		{"length not 8+20n", good[:len(good)-1]},
		{"inverted range", wire.EncodeReadReq(1, []wire.ReadRange{{Array: 0, Lo: 4, Hi: 0}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int64
			ownerFailed := make(chan struct{})
			errs := runMeshCfg(t, 2,
				func(rank int, c *Config) { c.DrainTimeout = 100 * time.Millisecond },
				func(rank int, eng *Engine) error {
					eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
						served.Add(1)
						return rangeBytes(array, lo, hi), nil
					})
					if rank == 0 {
						err := eng.enqueue(1, outFrame{kind: wire.KindReadReq, payload: tc.payload})
						<-ownerFailed
						return err
					}
					defer close(ownerFailed)
					<-eng.fatalCh
					return eng.fatalErr()
				})
			if errs[1] == nil || !strings.Contains(errs[1].Error(), "protocol error from rank 0") {
				t.Errorf("owner's error = %v, want a protocol error naming rank 0", errs[1])
			}
			if n := served.Load(); n != 0 {
				t.Errorf("read server ran %d times on a malformed request", n)
			}
		})
	}
}

// announcedFrames are frame headers a peer sends with nothing behind
// them, and what the reader makes of each once the peer hangs up.
var announcedFrames = []struct {
	kind  byte
	total uint32 // the length prefix: kind byte plus payload
	want  string
}{
	{wire.KindMsg, wire.MaxFrame, "read from rank 1"},
	{wire.KindReadResp, wire.MaxFrame, "read from rank 1"},
	{wire.KindReadReq, wire.MaxFrame, "read from rank 1"},
	{wire.KindAbort, wire.MaxFrame, "read from rank 1"},
	{wire.KindCommitData, wire.MaxFrame, "read from rank 1"},
	{wire.KindCommitEnd, wire.MaxFrame, "protocol error from rank 1: commit end is 1073741823 bytes, want 32"},
	{wire.KindPing, 9, "protocol error from rank 1: frame of kind 10 carries 8 bytes, want none"},
	{wire.KindPong, 2, "protocol error from rank 1: frame of kind 11 carries 1 bytes, want none"},
	{wire.KindBye, wire.MaxFrame, "protocol error from rank 1: frame of kind 9 carries 1073741823 bytes, want none"},
	{wire.KindReadResp, 8, "protocol error from rank 1: read response is 7 bytes, want >= 8"},
}

// frameHeader is the five bytes that open a frame of kind announcing
// total bytes (the kind byte and the payload).
func frameHeader(kind byte, total uint32) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, total), kind)
}

// TestReaderAllocatesWhatArrives has a handshaken peer announce frames it
// never sends and hang up. A payload that is read at all costs the reader
// what arrived, not the gigabyte announced, and a length no sender
// produces is refused before anything is read, naming the peer.
func TestReaderAllocatesWhatArrives(t *testing.T) {
	for _, tc := range announcedFrames {
		t.Run(fmt.Sprintf("kind %d", tc.kind), func(t *testing.T) {
			eng, conn := rawPeer(t, nil)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(frameHeader(tc.kind, tc.total)); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			select {
			case <-eng.fatalCh:
			case <-time.After(10 * time.Second):
				t.Fatal("the engine never noticed the peer hang up")
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("a 5-byte header announcing %d bytes cost %d bytes of allocation", tc.total, got)
			}
			if err := eng.fatalErr(); !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestCurrentOpCountsConcurrentReads pins the detector's attribution
// with several reads blocked at once: the first read to return used to
// clear one shared slot, so an error raised while the others were still
// blocked blamed "local compute".
func TestCurrentOpCountsConcurrentReads(t *testing.T) {
	e := &Engine{}
	if got := e.currentOp(); !strings.Contains(got, "local compute") {
		t.Fatalf("idle engine reports %q", got)
	}
	a := wireOp{kind: opFetch, peer: 1, n: 1, first: wire.ReadRange{Array: 3, Lo: 0, Hi: 8}}
	b := wireOp{kind: opFetch, peer: 2, n: 4, first: wire.ReadRange{Array: 5, Lo: 16, Hi: 32}}
	e.beginOp(a)
	e.beginOp(b)
	e.beginOp(a) // equal records may be in flight together; endOp removes one of them
	if got := e.currentOp(); !strings.Contains(got, "remote read of array 3 [0:8) from rank 1") || !strings.Contains(got, "2 more wire ops") {
		t.Errorf("three reads in flight reported as %q", got)
	}
	e.endOp(a)
	e.endOp(a)
	if got := e.currentOp(); got != "remote read of array 5 [16:32) and 3 more ranges from rank 2" {
		t.Errorf("after the first reads returned, the one still blocked is reported as %q", got)
	}
	e.endOp(b)
	if got := e.currentOp(); !strings.Contains(got, "local compute") {
		t.Errorf("all reads returned, engine reports %q", got)
	}
	for _, tc := range []struct {
		op   wireOp
		want string
	}{
		{wireOp{kind: opRecv, peer: 1, tag: 7}, "node-level recv (src=1, tag=7)"},
		{wireOp{kind: opCommit, phase: 12}, "commit exchange for phase 12"},
	} {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("op = %q, want %q", got, tc.want)
		}
	}
}

// TestRemoteReadPathAllocates pins what a remote read costs the process
// end to end: two ranks in one process, 400 one-VP global phases, each
// reading one element and so fetching the remote 4 KiB line around it.
// The owner's copy and the requester's reply both come from wire's pool,
// so a warm phase allocates only its exchanges' few small records, under
// 1 KiB for both ranks together; a fresh copy on either side is 4 KiB.
// Under -race the phases still run and check what they read.
func TestRemoteReadPathAllocates(t *testing.T) {
	const warm, phases, line = 50, 400, 512 // line: float64s in a 4 KiB fetch
	const n = 2 * 8 * line                  // rank 1 owns [n/2, n): 8 lines
	var perPhase float64
	runMeshWith(t, 2, quietMesh, func(rank int, eng *Engine) error {
		_, err := core.RunDist(core.Options{Nodes: 2, CoresPerNode: 1, NoPlanCache: true}, eng, func(rt *core.Runtime) {
			x := core.AllocGlobal[float64](rt, "x", n)
			rt.Do(1, func(vp *core.VP) {
				vp.GlobalPhase(func() {
					for i := vp.Node() * n / 2; i < (vp.Node()+1)*n/2; i++ {
						x.Write(vp, i, float64(i))
					}
				})
				var before, after runtime.MemStats
				for p := 0; p < warm+phases; p++ {
					if p == warm && rank == 0 {
						runtime.ReadMemStats(&before)
					}
					vp.GlobalPhase(func() {
						if rank != 0 {
							return
						}
						i := n/2 + p%8*line + p%line
						if v := x.Read(vp, i); v != float64(i) {
							panic(fmt.Sprintf("phase %d read x[%d] = %v", p, i, v))
						}
					})
				}
				if rank == 0 {
					runtime.ReadMemStats(&after)
					perPhase = float64(after.TotalAlloc-before.TotalAlloc) / phases
				}
			})
		})
		return err
	})
	t.Logf("%.0f bytes allocated per phase", perPhase)
	if !raceEnabled && perPhase > 1024 {
		t.Errorf("a phase reading one remote line allocated %.0f bytes across both ranks, want <= 1024", perPhase)
	}
}

// refusalProg fills each rank's partition of a Global, adds a block of
// the next rank's partition into each VP's block of its own in one global
// phase, and copies out the rank's partition.
func refusalProg(n int, out [][]float64) func(rt *core.Runtime) {
	return func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "g", n)
		lo, _ := g.OwnerRange(rt)
		for i, l := 0, g.Local(rt); i < len(l); i++ {
			l[i] = float64(lo+i) + 0.25
		}
		part, next := n/rt.NodeCount(), (rt.NodeID()+1)%rt.NodeCount()
		rt.Do(2, func(vp *core.VP) {
			buf := make([]float64, 64)
			vp.GlobalPhase(func() {
				src := next*part + vp.NodeRank()*64
				g.ReadBlock(vp, src, src+64, buf)
				g.AddBlock(vp, lo+vp.NodeRank()*64, buf)
			})
		})
		out[rt.NodeID()] = append([]float64(nil), g.Local(rt)...)
	}
}

// TestReadAfterRunEndsIsRefused: once rank 1's run has ended and handed
// its arrays' storage back, a read request for one of them (rank 0's
// FetchRanges puts one ReadReq frame on the link) gets the unknown-array
// refusal, an empty reply, and both engines carry on: the next job's
// outputs are the simulator's bit for bit. The request comes straight
// after the run, after a second job that drew the same storage class from
// the pool, and with every frame rank 0 sends duplicated, so that repeats
// of the run's own requests arrive late as well. Before the release
// detached the arrays, the finished run's read server answered from
// storage the pool had taken back.
func TestReadAfterRunEndsIsRefused(t *testing.T) {
	const nodes, n = 2, 4096
	opt := distOpt(nodes)
	want := make([][]float64, nodes)
	if _, err := core.Run(opt, refusalProg(n, want)); err != nil {
		t.Fatalf("simulator: %v", err)
	}
	for _, tc := range []struct {
		name   string
		jobs   int
		faults string
	}{
		{"after the run", 1, ""},
		{"after another job drew the storage", 2, ""},
		{"duplicated requests", 1, "dup=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs := make([][][]float64, tc.jobs+1)
			for i := range outs {
				outs[i] = make([][]float64, nodes)
			}
			released, fetched := make(chan struct{}), make(chan struct{})
			// Either closes at once if its rank fails, so that the other
			// fails too instead of waiting for it.
			release, fetch := sync.OnceFunc(func() { close(released) }), sync.OnceFunc(func() { close(fetched) })
			runMeshWith(t, nodes, func(rank int, c *Config) {
				quietMesh(rank, c)
				if rank == 0 && tc.faults != "" {
					c.Faults = mustPlan(t, tc.faults, rank)
				}
			}, func(rank int, eng *Engine) error {
				defer release()
				defer fetch()
				for j := 0; j < tc.jobs; j++ {
					if _, err := core.RunDist(opt, eng, refusalProg(n, outs[j])); err != nil {
						return fmt.Errorf("job %d: %w", j, err)
					}
				}
				// Rank 0 asks once rank 1's run has returned, and with it
				// the release (past the exit barrier a peer's request may
				// still find the storage in place); rank 1 starts the next
				// job only once rank 0 has its answer, which the next run's
				// read server would hold until that run's first global phase.
				if rank == 0 {
					<-released
					got, err := eng.FetchRanges(1, []wire.ReadRange{{Array: 0, Lo: n / 2, Hi: n/2 + 512}})
					fetch()
					if err != nil {
						return fmt.Errorf("read after the run: %w", err)
					}
					if len(got) != 0 {
						return fmt.Errorf("read after the run returned %d bytes, want the refusal's empty reply", len(got))
					}
					eng.ReleaseRead(got)
				} else {
					release()
					<-fetched
				}
				select {
				case <-eng.fatalCh:
					return fmt.Errorf("the refusal failed the engine: %w", eng.fatalErr())
				default:
				}
				_, err := core.RunDist(opt, eng, refusalProg(n, outs[tc.jobs]))
				return err
			})
			for j, out := range outs {
				for r := range out {
					sameF64(t, fmt.Sprintf("job %d rank %d", j, r), out[r], want[r])
				}
			}
		})
	}
}

// TestStaleCollectiveMessagesDropped: with every frame rank 0 sends
// duplicated, each run leaves second copies of its collective messages in
// rank 1's mailbox, and nothing can ever receive them. A new run drops
// every queued message of a collective that finished before it started,
// and the mailbox turns such a message away if it arrives later, so what
// finished collectives leave behind is one run's copies at most. Before,
// rank 1's queue grew by two messages with every run. (Rank 0 may already
// have sent the next run's messages; those are live and not counted.)
func TestStaleCollectiveMessagesDropped(t *testing.T) {
	const nodes, n, jobs = 2, 4096, 4
	opt := distOpt(nodes)
	var left [jobs]int
	var stale [jobs][]int
	runMeshWith(t, nodes, func(rank int, c *Config) {
		quietMesh(rank, c)
		if rank == 0 {
			c.Faults = mustPlan(t, "dup=1", rank)
		}
	}, func(rank int, eng *Engine) error {
		for j := 0; j < jobs; j++ {
			floor := eng.collGen
			if _, err := core.RunDist(opt, eng, refusalProg(n, make([][]float64, nodes))); err != nil {
				return fmt.Errorf("job %d: %w", j, err)
			}
			if rank != 1 {
				continue
			}
			eng.mail.mu.Lock()
			for _, m := range eng.mail.q {
				gen, ok := mp.TagGen(m.tag)
				switch {
				case !ok || gen > eng.collGen:
				case gen <= floor:
					stale[j] = append(stale[j], gen)
				default:
					left[j]++
				}
			}
			eng.mail.mu.Unlock()
		}
		return nil
	})
	t.Logf("copies this run's collectives left in rank 1's queue, run by run: %v", left)
	for j := range stale {
		if len(stale[j]) > 0 {
			t.Errorf("after run %d rank 1 still queues messages of generations %v, all finished before the run began", j, stale[j])
		}
	}
}

// TestNextRunWaitsForEveryRank: a run's collectives cannot match a stale
// message of the engine's previous run. With every frame rank 0 sends
// duplicated, rank 1's mailbox still holds a second copy of rank 0's
// doK exchange and exit barrier when its first run returns. Rank 1 then
// starts its next run at once and rank 0 holds back; rank 1 must not
// enter the next run's first global phase until rank 0 has started that
// run. Each run's communicator used to restart its collective
// generation at 0, so the stale doK copy opened the phase on rank 1
// alone, and its in-phase read of rank 0 drew the refusal of rank 0's
// finished run.
func TestNextRunWaitsForEveryRank(t *testing.T) {
	const nodes, n = 2, 4096
	opt := distOpt(nodes)
	var started, early atomic.Bool
	entered := make(chan struct{})
	enter := sync.OnceFunc(func() { close(entered) })
	next := func(rt *core.Runtime) {
		g := core.AllocGlobal[float64](rt, "g", n)
		rt.Do(2, func(vp *core.VP) {
			vp.GlobalPhase(func() {
				if vp.Node() == 1 {
					if !started.Load() {
						early.Store(true)
					}
					enter()
				}
				_ = g.Read(vp, vp.NodeRank())
			})
		})
	}
	runMeshWith(t, nodes, func(rank int, c *Config) {
		quietMesh(rank, c)
		if rank == 0 {
			c.Faults = mustPlan(t, "dup=1", rank)
		}
	}, func(rank int, eng *Engine) error {
		defer enter()
		if _, err := core.RunDist(opt, eng, refusalProg(n, make([][]float64, nodes))); err != nil {
			return fmt.Errorf("first run: %w", err)
		}
		if rank == 0 {
			select {
			case <-entered:
			case <-time.After(300 * time.Millisecond):
			}
			started.Store(true)
		}
		_, err := core.RunDist(opt, eng, next)
		return err
	})
	if early.Load() {
		t.Error("rank 1 entered its next run's first global phase before rank 0 had started that run")
	}
}
