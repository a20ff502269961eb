package dist

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppm/internal/wire"
)

var updateFaultBytes = flag.Bool("update", false, "rewrite testdata/faultbytes.golden from this run")

// faultBatch is one round of every frame kind a writer ships, each
// distinguishable by round.
func faultBatch(round int) []outFrame {
	r := byte(round)
	h := wire.CommitHeader{Seq: int64(round + 1), Phase: int64(round), Total: 80}
	second := h
	second.Off = 40
	return []outFrame{
		{kind: wire.KindMsg, payload: wire.EncodeMsg(int64(10+round), []byte{1, 2, 3, r}, true)},
		{kind: wire.KindReadReq, payload: wire.EncodeReadReq(uint64(round), []wire.ReadRange{{Array: 1, Lo: round, Hi: round + 4}})},
		{kind: wire.KindReadResp, id: uint64(round), payload: bytes.Repeat([]byte{0xA0 | r}, 24)},
		{kind: wire.KindCommitData, hdr: h, payload: bytes.Repeat([]byte{0xC0 | r}, 40)},
		{kind: wire.KindCommitData, hdr: second, payload: bytes.Repeat([]byte{0xD0 | r}, 40)},
		{kind: wire.KindCommitEnd, hdr: h},
		{kind: wire.KindAbort, payload: wire.EncodeAbort(fmt.Sprintf("round %d", round))},
		{kind: wire.KindPing},
		{kind: wire.KindPong},
		{kind: wire.KindBye},
	}
}

// TestFrameFaultBytesGolden pins what a seeded fault plan makes of one
// peer's outgoing frames, byte for byte: four rounds of every frame kind
// under drop, dup, re-framed truncation and delay, then, once the plan's
// partition arms at phase 2, one more round and the engine's own Bye,
// which must all vanish. The bytes are read off the socket of a real
// engine, so the test holds whatever sits between the queue and the
// wire. Every CommitEnd queued is acknowledged to CommitExchange's
// borrow, whether its frame was dropped (round 0's, under this seed) or
// blackholed (round 4's).
func TestFrameFaultBytesGolden(t *testing.T) {
	pl := mustPlan(t, "seed=5; drop=0.2; dup=0.2; trunc=0.25; delay=0.2:1ms; partition=0|1@phase:2", 0)
	eng, conn := rawPeer(t, func(c *Config) { c.Faults = pl })
	acks := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-eng.commitAck:
				n++
			case <-eng.fatalCh:
				for len(eng.commitAck) > 0 {
					<-eng.commitAck
					n++
				}
				acks <- n
				return
			}
		}
	}()
	golden := filepath.Join("testdata", "faultbytes.golden")
	want, err := os.ReadFile(golden)
	if err != nil && !*updateFaultBytes {
		t.Fatal(err)
	}
	wantA, wantB, _ := strings.Cut(string(want), "--- partition\n")

	commitEnds := 0
	enqueue := func(rounds ...int) {
		for _, r := range rounds {
			for _, f := range faultBatch(r) {
				if f.kind == wire.KindCommitEnd {
					commitEnds++
				}
				if err := eng.enqueue(1, f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	enqueue(0, 1, 2, 3)
	var gotA []byte
	if *updateFaultBytes {
		gotA = readQuiet(t, conn, 500*time.Millisecond)
	} else {
		gotA = readN(t, conn, len(unhexLines(t, wantA)))
	}
	pl.SetPhase(2)
	enqueue(4)
	eng.Close() // its Bye is blackholed too; the engine then closes the socket
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	gotB, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading to the engine's close: %v", err)
	}
	got := hexLines(gotA) + "--- partition\n" + hexLines(gotB)
	if *updateFaultBytes {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if got != string(want) {
		t.Errorf("fault bytes differ from %s\n got A: %d bytes, B: %d bytes\nwant A: %d bytes, B: %d bytes",
			golden, len(gotA), len(gotB), len(unhexLines(t, wantA)), len(unhexLines(t, wantB)))
	}
	if n := <-acks; n != commitEnds {
		t.Errorf("%d CommitEnd frames queued, %d acknowledged", commitEnds, n)
	}
}

// readN reads exactly n bytes from conn.
func readN(t *testing.T, conn net.Conn, n int) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("reading %d bytes: %v", n, err)
	}
	return buf
}

// readQuiet reads from conn until nothing has arrived for quiet.
func readQuiet(t *testing.T, conn net.Conn, quiet time.Duration) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 4096)
	for {
		conn.SetReadDeadline(time.Now().Add(quiet))
		n, err := conn.Read(buf)
		out = append(out, buf[:n]...)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hexLines renders b as hex, 32 bytes a line.
func hexLines(b []byte) string {
	var s strings.Builder
	for len(b) > 0 {
		n := min(32, len(b))
		s.WriteString(hex.EncodeToString(b[:n]) + "\n")
		b = b[n:]
	}
	return s.String()
}

func unhexLines(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
