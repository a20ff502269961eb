package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/wire"
)

// The commit path moves streams by reference: CommitExchange borrows the
// caller's outgoing streams until it returns, the readers assemble the
// incoming ones in pooled buffers, and ReleaseCommit hands those back.
// These tests pin the three properties that buys and costs: a warm
// exchange allocates nothing whatever the stream size, the borrow really
// ends when the call returns, and the position every commit frame now
// carries lets the plane ignore a repeated frame and name a lost one.

// pattern is the byte at position i of the stream src sends dst in phase.
func pattern(src, dst int, phase int64, i int) byte {
	return byte(i*7 + src*31 + dst*17 + int(phase)*3)
}

func fillPattern(buf []byte, src, dst int, phase int64) {
	for i := range buf {
		buf[i] = pattern(src, dst, phase, i)
	}
}

func checkPattern(stream []byte, n, src, dst int, phase int64) error {
	if len(stream) != n {
		return fmt.Errorf("phase %d: stream from rank %d is %d bytes, want %d", phase, src, len(stream), n)
	}
	for i, b := range stream {
		if b != pattern(src, dst, phase, i) {
			return fmt.Errorf("phase %d: stream from rank %d differs from what was sent at byte %d of %d", phase, src, i, n)
		}
	}
	return nil
}

// quietMesh is a config for tests that count or time frames: no probes.
func quietMesh(_ int, c *Config) {
	c.HeartbeatInterval = -1
	c.DrainTimeout = 100 * time.Millisecond
}

// TestCommitExchangeBorrowsAndReturns overwrites the outgoing streams the
// instant CommitExchange returns, for 200 phases and three stream sizes
// on three ranks, and checks every peer still decodes exactly what was
// sent. Under -race a writer still reading a borrowed stream would be a
// reported race, not only a wrong byte.
func TestCommitExchangeBorrowsAndReturns(t *testing.T) {
	const nodes, phases = 3, 200
	sizes := []int{100, 8192 + 1, 300 << 10}
	runMeshWith(t, nodes, quietMesh, func(rank int, eng *Engine) error {
		out := make([][]byte, nodes)
		for dst := range out {
			out[dst] = make([]byte, sizes[len(sizes)-1])
		}
		outgoing := make([][]byte, nodes)
		for phase := int64(1); phase <= phases; phase++ {
			n := sizes[int(phase)%len(sizes)]
			for dst := 0; dst < nodes; dst++ {
				if dst != rank {
					outgoing[dst] = out[dst][:n]
					fillPattern(outgoing[dst], rank, dst, phase)
				}
			}
			in, err := eng.CommitExchange(phase, outgoing)
			if err != nil {
				return err
			}
			for dst := range out {
				clear(out[dst]) // the borrow is over: the next phase's encode would do this
			}
			for src := 0; src < nodes; src++ {
				if src == rank {
					continue
				}
				if err := checkPattern(in[src], n, src, rank, phase); err != nil {
					return err
				}
			}
			eng.ReleaseCommit(in)
		}
		return nil
	})
}

// TestCommitExchangeSeveredNeverHangs cuts a link in the middle of a run
// of large exchanges: both ends must come back with the transport's
// error — in particular the sender must not wait forever for a writer's
// acknowledgement that a dead link will never produce.
func TestCommitExchangeSeveredNeverHangs(t *testing.T) {
	start := time.Now()
	errs := runMeshCfg(t, 2,
		func(rank int, c *Config) {
			quietMesh(rank, c)
			c.OpTimeout = 20 * time.Second // only the severed link may end the run
			c.Faults = mustPlan(t, "sever=0@phase:5", rank)
		},
		func(rank int, eng *Engine) error {
			stream := make([]byte, 1<<20)
			for phase := int64(1); phase <= 8; phase++ {
				fillPattern(stream, rank, 1-rank, phase)
				outgoing := make([][]byte, 2)
				outgoing[1-rank] = stream
				in, err := eng.CommitExchange(phase, outgoing)
				if err != nil {
					if phase < 5 {
						return fmt.Errorf("failed before the sever, at phase %d: %w", phase, err)
					}
					return nil
				}
				if err := checkPattern(in[1-rank], len(stream), 1-rank, rank, phase); err != nil {
					return err
				}
				eng.ReleaseCommit(in)
			}
			return fmt.Errorf("all 8 phases completed over a link severed at phase 5")
		})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("severed exchange took %v to fail: that is a deadline, not the link's error", elapsed)
	}
}

// TestCommitExchangeSteadyStateAllocatesNothing runs two loopback ranks
// in lockstep and counts what the whole process allocates per exchange
// plus release once the path is warm: nothing, for an 8 KB stream and a
// 1 MB stream alike (both ranks' senders, writers, readers and waiters
// are in the count).
func TestCommitExchangeSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	perOp := func(size int) (bytes, mallocs float64) {
		const warm, batches, ops = 10, 5, 20
		var ready, done sync.WaitGroup
		step := make([]chan int64, 2) // one lockstep driver per rank: no goroutine per exchange
		for r := range step {
			step[r] = make(chan int64)
		}
		ready.Add(2)
		go func() {
			ready.Wait() // both ranks connected and parked on their step channel
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			phase := int64(0)
			exchange := func(n int) {
				for i := 0; i < n; i++ {
					phase++
					done.Add(2)
					step[0] <- phase
					step[1] <- phase
					done.Wait()
				}
			}
			exchange(warm)
			bytes, mallocs = -1, -1
			var before, after runtime.MemStats
			for b := 0; b < batches; b++ {
				// The calmest batch is the steady state: sync.Pool may
				// still miss once or twice while its per-P slots fill.
				runtime.ReadMemStats(&before)
				exchange(ops)
				runtime.ReadMemStats(&after)
				if d := float64(after.TotalAlloc-before.TotalAlloc) / ops; bytes < 0 || d < bytes {
					bytes = d
				}
				if d := float64(after.Mallocs-before.Mallocs) / ops; mallocs < 0 || d < mallocs {
					mallocs = d
				}
			}
			close(step[0])
			close(step[1])
		}()
		runMeshWith(t, 2, quietMesh, func(rank int, eng *Engine) error {
			stream := make([]byte, size)
			outgoing := make([][]byte, 2)
			outgoing[1-rank] = stream
			ready.Done()
			for phase := range step[rank] {
				in, err := eng.CommitExchange(phase, outgoing)
				if err != nil {
					done.Done()
					return err
				}
				eng.ReleaseCommit(in)
				done.Done()
			}
			return nil
		})
		return bytes, mallocs
	}
	smallB, smallN := perOp(8 << 10)
	largeB, largeN := perOp(1 << 20)
	t.Logf("per exchange + release, both ranks: 8 KB stream %.0f B in %.2f allocs, 1 MB stream %.0f B in %.2f allocs", smallB, smallN, largeB, largeN)
	for _, c := range []struct {
		name  string
		b, n  float64
		other float64
	}{{"8 KB", smallB, smallN, largeB}, {"1 MB", largeB, largeN, smallB}} {
		if c.b >= 512 {
			t.Errorf("%s stream: %.0f B allocated per exchange, want under 512", c.name, c.b)
		}
		if c.n >= 1 {
			t.Errorf("%s stream: %.2f allocations per exchange, want 0", c.name, c.n)
		}
	}
	if d := largeB - smallB; d > 64 || d < -64 {
		t.Errorf("bytes allocated depend on the stream size: %.0f B at 8 KB, %.0f B at 1 MB", smallB, largeB)
	}
}

// TestMailboxRecvQueuedMessageArmsNoTimer: a barrier token that is
// already there costs its receiver no timer and no allocation.
func TestMailboxRecvQueuedMessageArmsNoTimer(t *testing.T) {
	var mb mailbox
	mb.init()
	allocs := testing.AllocsPerRun(100, func() {
		mb.put(mailMsg{src: 1, tag: 9})
		if _, ok, _ := mb.recv(1, 9, time.Minute); !ok {
			t.Fatal("queued message not received")
		}
	})
	if allocs != 0 {
		t.Errorf("recv of a queued message: %v allocs, want 0", allocs)
	}
	if tm, _ := mb.timers.Get().(*time.Timer); tm != nil {
		t.Error("recv of a queued message armed a timer")
	}
	// A receive that has to block arms one, honours its own deadline, and
	// leaves the timer for the next.
	start := time.Now()
	if _, ok, timedOut := mb.recv(1, 9, 30*time.Millisecond); ok || !timedOut {
		t.Fatalf("recv on an empty mailbox = (ok %v, timedOut %v), want a timeout", ok, timedOut)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 5*time.Second {
		t.Errorf("30ms receive deadline fired after %v", d)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		mb.put(mailMsg{src: 2, tag: 3})
	}()
	if m, ok, _ := mb.recv(2, 3, time.Minute); !ok || m.src != 2 {
		t.Fatalf("blocked recv = (%+v, %v), want the message put later", m, ok)
	}
}

// --- the plane's frame checks -------------------------------------------

// planeFrame is one commit frame rank 1 sends in the plane's tests.
type planeFrame struct {
	h   wire.CommitHeader
	n   int  // chunk bytes; for an end, ignored
	end bool // CommitEnd
}

func planeHdr(seq, phase int64, off, total int) wire.CommitHeader {
	return wire.CommitHeader{Seq: seq, Phase: phase, Off: off, Total: total}
}

// appendTo appends f's wire form to buf, its chunk (if any) n bytes of 0xA5.
func (f planeFrame) appendTo(buf []byte) []byte {
	if f.end {
		return wire.AppendCommitEnd(buf, f.h)
	}
	return wire.AppendCommitData(buf, f.h, bytes.Repeat([]byte{0xA5}, f.n))
}

// planeFrameSequences are the frame sequences a faulty link produces,
// each with the error its last frame earns ("" = accepted) and the bytes
// of rank 1's stream afterwards.
var planeFrameSequences = func() []struct {
	name   string
	frames []planeFrame
	want   string
	got    int
} {
	hdr := planeHdr
	data := func(off, n, total int) planeFrame { return planeFrame{h: hdr(1, 7, off, total), n: n} }
	end := func(total int) planeFrame { return planeFrame{h: hdr(1, 7, total, total), end: true} }
	return []struct {
		name   string
		frames []planeFrame
		want   string
		got    int
	}{
		{"in order", []planeFrame{data(0, 8, 20), data(8, 8, 20), data(16, 4, 20), end(20)}, "", 20},
		{"empty stream", []planeFrame{end(0)}, "", 0},
		{"chunk repeated", []planeFrame{data(0, 8, 16), data(0, 8, 16), data(8, 8, 16), end(16)}, "", 16},
		{"last chunk and end repeated", []planeFrame{data(0, 8, 8), data(0, 8, 8), end(8), end(8)}, "", 8},
		{"middle chunk lost", []planeFrame{data(0, 8, 24), data(16, 8, 24)},
			"rank 1's phase 7 commit stream continues at offset 16 with 8 bytes received", 8},
		{"first chunk lost", []planeFrame{data(8, 8, 16)}, "continues at offset 8 with 0 bytes received", 0},
		{"chunk cut short", []planeFrame{data(0, 4, 16), data(8, 8, 16)}, "continues at offset 8 with 4 bytes received", 4},
		{"last chunk lost", []planeFrame{data(0, 8, 16), end(16)},
			"rank 1 ended its phase 7 commit stream at 16 bytes with 8 received", 8},
		{"every chunk lost", []planeFrame{end(16)}, "at 16 bytes with 0 received", 0},
		{"chunk past the total", []planeFrame{data(0, 8, 12), data(8, 8, 12)}, "overruns its announced 12 bytes by 4", 8},
		{"data after end", []planeFrame{data(0, 8, 8), end(8), data(8, 8, 16)},
			"rank 1 sent 8 more bytes of its phase 7 commit stream after ending it at 8", 8},
		{"second end disagrees", []planeFrame{data(0, 8, 8), end(8), end(9)}, "at 9 bytes with 8 received", 8},
		{"ranks out of step", []planeFrame{data(0, 8, 8), {h: hdr(1, 8, 8, 8), end: true}},
			"exchange 1 is phase 7 to one rank and phase 8 to another", 8},
		{"ordinal from the future", []planeFrame{{h: hdr(3, 9, 0, 0), end: true}},
			"rank 1 sent a commit frame of phase 9 as exchange 3 while this rank has completed 0", 0},
	}
}()

// TestCommitPlaneFrameChecks drives the plane with the frame sequences a
// faulty link produces. Duplicates are ignored wherever they land; a
// lost, cut or surplus frame is an error naming the rank and the phase.
func TestCommitPlaneFrameChecks(t *testing.T) {
	for _, tc := range planeFrameSequences {
		t.Run(tc.name, func(t *testing.T) {
			var cp commitPlane
			cp.init(3)
			var err error
			for _, f := range tc.frames {
				if err != nil {
					t.Fatalf("frame before the last was refused: %v", err)
				}
				if f.end {
					err = cp.end(1, f.h)
				} else {
					var dst []byte
					if dst, err = cp.reserve(1, f.h, f.n); dst != nil && len(dst) != f.n {
						t.Fatalf("reserve handed out %d bytes for a %d-byte chunk", len(dst), f.n)
					}
				}
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if b := cp.open[1]; b != nil && len(b.data[1]) != tc.got {
				t.Errorf("stream holds %d bytes, want %d", len(b.data[1]), tc.got)
			}
		})
	}
}

// TestCommitPlaneIgnoresCompletedExchange: a frame that arrives after its
// exchange was handed out (a duplicated CommitEnd that lost the race with
// the waiter) must not open a buffer nobody will ever collect, and must
// not count toward the next job's exchange when that reuses the phase
// number.
func TestCommitPlaneIgnoresCompletedExchange(t *testing.T) {
	var cp commitPlane
	cp.init(2)
	h := wire.CommitHeader{Seq: 1, Phase: 1, Off: 4, Total: 4}
	dst, err := cp.reserve(1, wire.CommitHeader{Seq: 1, Phase: 1, Total: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(dst, "abcd")
	if err := cp.end(1, h); err != nil {
		t.Fatal(err)
	}
	in, err := cp.wait(1, 1, 0, time.Second)
	if err != nil || string(in[1]) != "abcd" {
		t.Fatalf("wait = (%q, %v)", in, err)
	}
	// Late repeats of both frame kinds, while the streams are still lent.
	if dst, err := cp.reserve(1, wire.CommitHeader{Seq: 1, Phase: 1, Total: 4}, 4); dst != nil || err != nil {
		t.Errorf("late chunk: reserve = (%v, %v), want it dropped", dst, err)
	}
	if err := cp.end(1, h); err != nil {
		t.Errorf("late end: %v", err)
	}
	if len(cp.open) != 0 {
		t.Errorf("late frames opened %d buffers nobody waits for", len(cp.open))
	}
	if string(in[1]) != "abcd" {
		t.Errorf("late frames touched the lent stream: %q", in[1])
	}
	cp.release(in)

	// The next job restarts at phase 1: exchange 2 must wait for its own end.
	got := make(chan error, 1)
	go func() {
		in, err := cp.wait(2, 1, 0, 5*time.Second)
		if err == nil && len(in[1]) != 0 {
			err = fmt.Errorf("stream of the empty exchange holds %q", in[1])
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("exchange 2 completed before its end arrived (err %v): the repeated end of exchange 1 was counted", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := cp.end(1, wire.CommitHeader{Seq: 2, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// TestCommitPlaneRecyclesBuffers: what release takes back is what the
// next exchange assembles into, at its grown capacity, and only the
// streams the last wait handed out are accepted.
func TestCommitPlaneRecyclesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	var cp commitPlane
	cp.init(2)
	exchange := func(seq int64, n int) [][]byte {
		t.Helper()
		if n > 0 {
			if _, err := cp.reserve(1, wire.CommitHeader{Seq: seq, Phase: seq, Total: n}, n); err != nil {
				t.Fatal(err)
			}
		}
		if err := cp.end(1, wire.CommitHeader{Seq: seq, Phase: seq, Off: n, Total: n}); err != nil {
			t.Fatal(err)
		}
		in, err := cp.wait(seq, seq, 0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	first := exchange(1, 4096)
	backing := &first[1][0]
	cp.release([][]byte{first[0], first[1]}) // the same streams, but not what wait returned
	if cp.lent == nil {
		t.Fatal("release accepted a slice wait never handed out")
	}
	cp.release(first)
	if cp.lent != nil {
		t.Fatal("release left the streams lent")
	}
	second := exchange(2, 100)
	if &second[1][:1][0] != backing {
		t.Error("the next exchange did not reuse the released stream buffer")
	}
	if cap(second[1]) < 4096 {
		t.Errorf("recycled stream lost its capacity: %d", cap(second[1]))
	}
	cp.release(second)
	third := exchange(3, 0)
	if len(third[1]) != 0 {
		t.Errorf("recycled buffer carried %d stale bytes into an empty stream", len(third[1]))
	}
}

// TestCommitPlaneHonestStreamGrowsOnce: a stream below commitTrustTotal is
// sized for its announced total by its first chunk, so however many
// chunks it arrives in, assembling it costs one allocation.
func TestCommitPlaneHonestStreamGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the plane's pool
	var cp commitPlane
	cp.init(2)
	// An empty exchange first, so the plane has a buffer to recycle.
	if err := cp.end(1, wire.CommitHeader{Seq: 1, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	in, err := cp.wait(1, 1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cp.release(in)

	const total, chunk = 130 << 10, 32 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < total; off += chunk {
		n := min(chunk, total-off)
		if _, err := cp.reserve(1, wire.CommitHeader{Seq: 2, Phase: 2, Off: off, Total: total}, n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 {
		t.Errorf("a %d-byte stream in %d-byte chunks took %d allocations, want 1", total, chunk, n)
	}
}

// --- the same checks through a socket -----------------------------------

// TestCommitChunkAllocatesWhatArrives has a handshaken peer send one
// commit chunk of a single byte that announces a stream of wire.MaxFrame
// bytes. Trusting the announcement would cost a gigabyte; the plane
// allocates at most commitTrustTotal until more bytes arrive.
func TestCommitChunkAllocatesWhatArrives(t *testing.T) {
	eng, conn := rawPeer(t, nil)
	frame := wire.AppendCommitData(nil, wire.CommitHeader{Seq: 1, Phase: 4, Total: wire.MaxFrame}, []byte{1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A message behind the chunk: once it is in, the reader is past the chunk.
	if _, err := conn.Write(append(frame, wire.AppendFrame(nil, wire.KindMsg, wire.EncodeMsg(5, nil, false))...)); err != nil {
		t.Fatal(err)
	}
	eng.Recv(1, 5)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("a %d-byte commit frame announcing %d bytes cost %d bytes of allocation", len(frame), wire.MaxFrame, got)
	}
	if err := eng.fatalErr(); !strings.Contains(err.Error(), "engine shut down") {
		t.Errorf("the chunk killed the mesh: %v", err)
	}
}

// rawPeer connects a real engine (rank 0 of 2) to a hand-driven rank 1:
// the test owns the socket and writes whatever frames it likes after a
// proper handshake. mod, if not nil, adjusts the engine's Config.
func rawPeer(t *testing.T, mod func(*Config)) (*Engine, net.Conn) {
	t.Helper()
	dir := t.TempDir()
	// Rank 0 dials nobody; it only needs rank 1's file to exist.
	if err := os.WriteFile(filepath.Join(dir, "node-1.addr"), []byte("\n127.0.0.1:1"), 0o644); err != nil {
		t.Fatal(err)
	}
	type result struct {
		eng *Engine
		err error
	}
	connected := make(chan result, 1)
	cfg := Config{Rank: 0, Nodes: 2, RendezvousDir: dir, ConnectTimeout: 10 * time.Second,
		HeartbeatInterval: -1, OpTimeout: 2 * time.Second, DrainTimeout: 50 * time.Millisecond}
	if mod != nil {
		mod(&cfg)
	}
	go func() {
		eng, err := Connect(cfg)
		connected <- result{eng, err}
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(time.Millisecond) {
		addr, _ = readAddrFile(filepath.Join(dir, "node-0.addr"), "")
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never published its address")
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := wire.EncodeHello(wire.Hello{Rank: 1, Nodes: 2, LittleEndian: wire.NativeLittleEndian(), Caps: wire.SupportedCaps})
	if _, err := conn.Write(wire.AppendFrame(nil, wire.KindHello, hello)); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := wire.ReadFrame(bufio.NewReader(conn)); err != nil || kind != wire.KindHelloAck {
		t.Fatalf("handshake reply = (kind %d, %v)", kind, err)
	}
	res := <-connected
	if res.err != nil {
		t.Fatal(res.err)
	}
	t.Cleanup(func() { res.eng.Close() })
	return res.eng, conn
}

// TestCommitFramesOverTheWire feeds a real reader goroutine malformed and
// duplicated commit frames and checks what CommitExchange makes of them:
// repeats are invisible, everything else is a protocol error naming rank
// and phase — never a hang until the deadline, never a wrong stream.
func TestCommitFramesOverTheWire(t *testing.T) {
	chunkA, chunkB := bytes.Repeat([]byte{0xA1}, 8192), bytes.Repeat([]byte{0xB2}, 100)
	total := len(chunkA) + len(chunkB)
	h := func(off int) wire.CommitHeader { return wire.CommitHeader{Seq: 1, Phase: 4, Off: off, Total: total} }
	dataA := wire.AppendCommitData(nil, h(0), chunkA)
	dataB := wire.AppendCommitData(nil, h(len(chunkA)), chunkB)
	end := wire.AppendCommitEnd(nil, h(0))
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, tc := range []struct {
		name string
		sent []byte
		want string // "" = the exchange completes with chunkA+chunkB
	}{
		{"clean", cat(dataA, dataB, end), ""},
		{"every frame twice", cat(dataA, dataA, dataB, dataB, end, end), ""},
		{"middle chunk dropped", cat(dataB, end), "protocol error from rank 1: rank 1's phase 4 commit stream continues at offset 8192 with 0 bytes received"},
		{"tail dropped", cat(dataA, end), "rank 1 ended its phase 4 commit stream at 8292 bytes with 8192 received"},
		{"short header", wire.AppendFrame(nil, wire.KindCommitData, dataA[wire.FrameHeaderBytes:][:wire.CommitHeaderBytes/2]),
			"protocol error from rank 1: commit chunk is 16 bytes, want >= 32"},
		{"end cut to half", wire.AppendFrame(nil, wire.KindCommitEnd, end[wire.FrameHeaderBytes:][:wire.CommitHeaderBytes/2]),
			"protocol error from rank 1: commit end is 16 bytes, want 32"},
		{"offset beyond total", wire.AppendCommitData(nil, wire.CommitHeader{Seq: 1, Phase: 4, Off: 9, Total: 8}, []byte{1}),
			"commit frame of phase 4 is at offset 9 of a 8-byte stream"},
		{"total above the frame bound", wire.AppendCommitData(nil, wire.CommitHeader{Seq: 1, Phase: 4, Total: wire.MaxFrame + 1}, []byte{1}),
			"commit stream of phase 4 announces 1073741825 bytes, above the 1073741824-byte bound"},
		{"chunk past its total", wire.AppendCommitData(nil, wire.CommitHeader{Seq: 1, Phase: 4, Total: 4}, chunkB),
			"rank 1's phase 4 commit stream overruns its announced 4 bytes by 96"},
		{"chunk above the bundle size", wire.AppendCommitData(nil, wire.CommitHeader{Seq: 1, Phase: 4, Total: 1 << 20}, make([]byte, bundleBytes+1)),
			"protocol error from rank 1: rank 1's phase 4 commit chunk is 8193 bytes, above the 8192 a sender cuts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, conn := rawPeer(t, nil)
			if _, err := conn.Write(tc.sent); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			in, err := eng.CommitExchange(4, make([][]byte, 2))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("CommitExchange: %v", err)
				}
				if !bytes.Equal(in[1], cat(chunkA, chunkB)) {
					t.Fatalf("stream from rank 1 is %d bytes and not what was sent", len(in[1]))
				}
				eng.ReleaseCommit(in)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("the bad frame surfaced after %v: that is the op deadline, not the check", d)
			}
		})
	}
}

// TestCommitStreamLeavesInBundleSizedFrames reads the other direction off
// the socket: a stream longer than bundleBytes must leave as
// ceil(len/bundleBytes) CommitData frames at consecutive offsets, each
// announcing the stream's total, then one CommitEnd — and reassemble to
// exactly what was handed to CommitExchange.
func TestCommitStreamLeavesInBundleSizedFrames(t *testing.T) {
	eng, conn := rawPeer(t, nil)
	stream := make([]byte, 2*bundleBytes+100)
	fillPattern(stream, 0, 1, 4)
	// Rank 1's own (empty) stream, so the exchange can complete.
	if _, err := conn.Write(wire.AppendCommitEnd(nil, wire.CommitHeader{Seq: 1, Phase: 4})); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		in, err := eng.CommitExchange(4, [][]byte{nil, stream})
		if err == nil {
			eng.ReleaseCommit(in)
		}
		done <- err
	}()
	br := bufio.NewReader(conn)
	var got []byte
	for frames := 0; ; frames++ {
		kind, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if kind == wire.KindCommitEnd {
			if want := (len(stream) + bundleBytes - 1) / bundleBytes; frames != want {
				t.Errorf("%d CommitData frames before the end, want %d", frames, want)
			}
			break
		}
		h, err := wire.DecodeCommitHeader(payload)
		if kind != wire.KindCommitData || err != nil {
			t.Fatalf("frame %d: kind %d, header error %v", frames, kind, err)
		}
		chunk := payload[wire.CommitHeaderBytes:]
		if h.Off != len(got) || h.Total != len(stream) || len(chunk) != min(bundleBytes, len(stream)-h.Off) {
			t.Fatalf("frame %d: offset %d of %d with %d bytes, after %d bytes received", frames, h.Off, h.Total, len(chunk), len(got))
		}
		got = append(got, chunk...)
	}
	if err := checkPattern(got, len(stream), 0, 1, 4); err != nil {
		t.Error(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("CommitExchange: %v", err)
	}
}

// TestLateCommitEndLeavesNothingBehind repeats a CommitEnd after the
// exchange it ends was handed out — the race a duplicating link loses
// half the time — and then runs the next job's exchange under the same
// phase number: the repeat must neither leak a buffer on the long-lived
// engine nor stand in for the end that has not arrived yet.
func TestLateCommitEndLeavesNothingBehind(t *testing.T) {
	eng, conn := rawPeer(t, nil)
	end1 := wire.AppendCommitEnd(nil, wire.CommitHeader{Seq: 1, Phase: 1})
	if _, err := conn.Write(end1); err != nil {
		t.Fatal(err)
	}
	in, err := eng.CommitExchange(1, make([][]byte, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng.ReleaseCommit(in)
	// The repeat, then a message: once the message is in, the reader has
	// dealt with the repeat before it.
	if _, err := conn.Write(append(end1, wire.AppendFrame(nil, wire.KindMsg, wire.EncodeMsg(5, nil, false))...)); err != nil {
		t.Fatal(err)
	}
	eng.Recv(1, 5)
	eng.commit.mu.Lock()
	open := len(eng.commit.open)
	eng.commit.mu.Unlock()
	if open != 0 {
		t.Fatalf("the repeated end left %d exchange buffers open", open)
	}
	// Next job, phase 1 again, and its end is late: the exchange must wait.
	go func() {
		time.Sleep(100 * time.Millisecond)
		conn.Write(wire.AppendCommitEnd(nil, wire.CommitHeader{Seq: 2, Phase: 1}))
	}()
	start := time.Now()
	in, err = eng.CommitExchange(1, make([][]byte, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("the second exchange returned after %v, before its end was sent", d)
	}
	eng.ReleaseCommit(in)
}
