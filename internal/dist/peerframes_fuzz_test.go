package dist

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ppm/internal/wire"
)

// peerFramesBound is how long the engine may take to reach its verdict
// once the fuzzed peer has hung up. The heartbeat settles any case the
// reader cannot (a reader held up behind a request that will never be
// served), well inside it.
const peerFramesBound = 10 * time.Second

// fuzzPeer is the engine's side of FuzzPeerFrames: the heartbeat on, so
// a reader stuck behind the peer's frames still ends in a verdict.
func fuzzPeer(c *Config) {
	c.HeartbeatInterval = 20 * time.Millisecond
	c.HeartbeatTimeout = time.Second
}

// FuzzPeerFrames feeds a real engine's reader whatever a handshaken peer
// sends before it hangs up: the stateful commit plane, the read path and
// the mailbox behind the decoders that FuzzReadFrame and its siblings
// check one frame at a time. Whatever arrives, the engine must end in a
// fatal error that names rank 1, within peerFramesBound, without a
// panic, and at a cost of at most what arrived plus 1 MiB of
// allocation, over and above the commit streams the peer opened: two
// exchanges can be open at once, and the commit plane sizes the stream of
// each for its announced total, up to commitTrustTotal. The one other
// ending is the orderly one: a peer that says goodbye before it hangs up
// has left, not failed.
func FuzzPeerFrames(f *testing.F) {
	for _, tc := range announcedFrames {
		f.Add(frameHeader(tc.kind, tc.total))
	}
	// The malformed commit payloads of wire's TestCommitFramesMalformed,
	// each in the frame it was meant for.
	payload := func(seq, phase, off, total uint64, tail ...byte) []byte {
		p := binary.LittleEndian.AppendUint64(nil, seq)
		p = binary.LittleEndian.AppendUint64(p, phase)
		p = binary.LittleEndian.AppendUint64(p, off)
		return append(binary.LittleEndian.AppendUint64(p, total), tail...)
	}
	for _, tc := range []struct {
		kind byte
		p    []byte
	}{
		{wire.KindCommitData, nil},
		{wire.KindCommitData, payload(1, 1, 0, 0)[:31]},
		{wire.KindCommitEnd, payload(1, 1, 0, 0)[:16]},
		{wire.KindCommitEnd, payload(1, 1, 0, 0, 9)},
		{wire.KindCommitData, payload(0, 4, 0, 0)},
		{wire.KindCommitEnd, payload(1<<63, 4, 0, 0)},
		{wire.KindCommitData, payload(1, 4, 8193, 8192)},
		{wire.KindCommitData, payload(1, 4, 0, wire.MaxFrame+1)},
		{wire.KindCommitEnd, payload(1, 4, 0, 1<<63)},
		{wire.KindCommitEnd, payload(1, 4, 100, 8192)},
	} {
		f.Add(wire.AppendFrame(nil, tc.kind, tc.p))
	}
	for _, tc := range planeFrameSequences {
		var sent []byte
		for _, fr := range tc.frames {
			sent = fr.appendTo(sent)
		}
		f.Add(sent)
	}
	f.Add(wire.AppendReadResp(nil, 42, rangeBytes(0, 0, 1024))) // a reply nobody waits for
	// A byte each of the two exchanges that can be open at once, both
	// announcing streams of commitTrustTotal: the most any frames buy.
	f.Add(wire.AppendCommitData(wire.AppendCommitData(nil,
		planeHdr(1, 1, 0, commitTrustTotal), []byte{1}), planeHdr(2, 2, 0, commitTrustTotal), []byte{1}))
	f.Fuzz(func(t *testing.T, sent []byte) {
		eng, conn := rawPeer(t, fuzzPeer)
		eng.SetReadServer(func(array, lo, hi int) ([]byte, error) {
			if lo < 0 || hi > 1024 {
				return nil, fmt.Errorf("remote read of [%d:%d) outside the partition [0:1024)", lo, hi)
			}
			return append(wire.GetBuf(4*(hi-lo)), rangeBytes(array, lo, hi)...), nil
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn.Write(sent) // the engine may have cut the link already
		conn.Close()
		select {
		case <-eng.fatalCh:
		case <-eng.byeCh:
			return
		case <-time.After(peerFramesBound):
			t.Fatalf("the engine reached no verdict within %v of the peer hanging up", peerFramesBound)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(sent)+1<<20+2*commitTrustTotal); got > limit {
			t.Errorf("%d bytes from the peer cost %d bytes of allocation, want <= %d", len(sent), got, limit)
		}
		if err := eng.fatalErr(); !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("err = %v, want it to name rank 1", err)
		}
	})
}
