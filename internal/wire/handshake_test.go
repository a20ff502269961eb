package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// The handshake is the one place the runtime parses bytes from a peer it
// has not yet authenticated as a PPM node of the same build and cluster
// shape. Every malformed Hello must produce a descriptive error — never
// a hang, panic, or silent acceptance.

func TestDecodeHelloVersionMismatch(t *testing.T) {
	p := EncodeHello(Hello{Rank: 1, Nodes: 4, LittleEndian: NativeLittleEndian()})
	binary.LittleEndian.PutUint16(p[4:], Version+1)
	_, err := DecodeHello(p, 4)
	if err == nil {
		t.Fatal("future-version hello accepted")
	}
	if !strings.Contains(err.Error(), "version mismatch") {
		t.Errorf("error %q does not name the version mismatch", err)
	}
}

func TestDecodeHelloEndiannessMismatch(t *testing.T) {
	p := EncodeHello(Hello{Rank: 2, Nodes: 4, LittleEndian: !NativeLittleEndian()})
	_, err := DecodeHello(p, 4)
	if err == nil {
		t.Fatal("cross-endian hello accepted")
	}
	if !strings.Contains(err.Error(), "byte-order") || !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("error %q should name the byte-order mismatch and the peer rank", err)
	}
}

func TestDecodeHelloShortAndLong(t *testing.T) {
	good := EncodeHello(Hello{Rank: 0, Nodes: 2, LittleEndian: NativeLittleEndian()})
	if len(good) != 17 {
		t.Fatalf("hello payload is %d bytes, want 17", len(good))
	}
	// 15 is the identity block alone, without the codec bytes.
	for _, n := range []int{0, 1, 7, 14, 15, 16} {
		if _, err := DecodeHello(good[:n], 2); err == nil {
			t.Errorf("%d-byte hello accepted", n)
		}
	}
	if _, err := DecodeHello(append(append([]byte{}, good...), 0), 2); err == nil {
		t.Error("18-byte hello accepted")
	}
}

func TestDecodeHelloCodecBytes(t *testing.T) {
	h := Hello{Rank: 1, Nodes: 4, LittleEndian: NativeLittleEndian(),
		Caps: SupportedCaps, Prefer: CodecDelta}
	p := EncodeHello(h)

	got, err := DecodeHello(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Caps != SupportedCaps || got.Prefer != CodecDelta {
		t.Errorf("caps/prefer = %v/%v, want %v/%v", got.Caps, got.Prefer, SupportedCaps, CodecDelta)
	}

	// Negotiation is symmetric: the sender evaluates the peer's caps, the
	// receiver its own, and both land on the same codec.
	if c := Negotiate(CodecDelta, SupportedCaps); c != CodecDelta {
		t.Errorf("delta vs delta-capable peer negotiated %v", c)
	}
	if c := Negotiate(CodecDelta, 1<<CodecRaw); c != CodecRaw {
		t.Errorf("delta vs raw-only peer negotiated %v", c)
	}
	if c := Negotiate(Codec(9), SupportedCaps); c != CodecRaw {
		t.Errorf("unknown future codec negotiated %v, want raw fallback", c)
	}
}

func TestDecodeHelloGarbage(t *testing.T) {
	// 17 bytes of noise: right length, wrong everything. Must fail on
	// magic, not be misread as a rank.
	garbage := bytes.Repeat([]byte{0x5a}, 17)
	_, err := DecodeHello(garbage, 4)
	if err == nil {
		t.Fatal("garbage hello accepted")
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("error %q should name the bad magic", err)
	}
}

func TestDecodeHelloRankOutOfRange(t *testing.T) {
	for _, rank := range []int{-1, 4, 100} {
		p := EncodeHello(Hello{Rank: rank, Nodes: 4, LittleEndian: NativeLittleEndian()})
		if _, err := DecodeHello(p, 4); err == nil {
			t.Errorf("out-of-range rank %d accepted", rank)
		}
	}
}

func TestDecodeHelloNodesMismatchNamesBothCounts(t *testing.T) {
	p := EncodeHello(Hello{Rank: 1, Nodes: 8, LittleEndian: NativeLittleEndian()})
	_, err := DecodeHello(p, 4)
	if err == nil {
		t.Fatal("cluster-shape mismatch accepted")
	}
	if !strings.Contains(err.Error(), "8") || !strings.Contains(err.Error(), "4") {
		t.Errorf("error %q should show both node counts", err)
	}
}

func TestHelloFrameFromGarbageStream(t *testing.T) {
	// A non-PPM speaker connects and sends arbitrary bytes. The framing
	// layer either returns a frame (whose Hello then fails validation)
	// or errors — it must not block once bytes stop, and must not panic.
	streams := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		{0x00, 0x00, 0x00, 0x00},            // zero-length frame
		{0xff, 0xff, 0xff, 0x7f, 0x01},      // absurd length prefix
		{0x05, 0x00, 0x00, 0x00, KindHello}, // hello frame, empty payload
	}
	for i, s := range streams {
		br := bufio.NewReader(bytes.NewReader(s))
		kind, payload, err := ReadFrame(br)
		if err != nil {
			continue // framing rejected it: fine
		}
		if kind != KindHello {
			continue // engine would reject a non-hello first frame
		}
		if _, err := DecodeHello(payload, 4); err == nil {
			t.Errorf("stream %d: garbage survived frame+hello validation", i)
		}
	}
}
