package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"ppm/internal/rng"
)

// Native fuzz targets for every decoder that reads bytes a peer sent.
// Each holds its decoder to the same contract: whatever the input, no
// panic and no allocation that a length field of the input sizes; and
// then either an error, or a value that encodes back to the bytes it
// came from. The seed corpora are the rows of the hand-written tables
// (TestReadReqRespMalformed, TestCommitFramesMalformed, the round-trip
// tests), so plain `go test` runs those through the targets; `make
// fuzz-smoke` lets the engine mutate them for a few seconds each, and a
// crasher it finds is checked in under testdata/fuzz with its fix.

func FuzzDecodeReadReq(f *testing.F) {
	good := EncodeReadReq(1, []ReadRange{{Array: 1, Lo: 2, Hi: 3}, {Array: 1, Lo: 8, Hi: 9}})
	f.Add([]byte(nil))
	f.Add(good)
	f.Add(good[:8])
	f.Add(good[:8+20+7])
	f.Add(append(bytes.Clone(good), 0))
	f.Add(EncodeReadReq(1, []ReadRange{{Array: 1, Lo: 2, Hi: 3}, {Array: 4, Lo: 9, Hi: 8}}))
	f.Add(EncodeReadReq(1<<63, []ReadRange{{Array: -1, Lo: -9, Hi: -8}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		id, ranges, err := DecodeReadReq(p)
		if err != nil {
			return
		}
		if got := EncodeReadReq(id, ranges); !bytes.Equal(got, p) {
			t.Fatalf("request %x decoded to (%d, %v), which encodes to %x", p, id, ranges, got)
		}
	})
}

func FuzzDecodeReadResp(f *testing.F) {
	good := EncodeReadReq(1, []ReadRange{{Array: 1, Lo: 2, Hi: 3}})
	f.Add([]byte(nil))
	f.Add(good[:7])
	f.Add(good[:8])
	f.Add(good)
	f.Fuzz(func(t *testing.T, p []byte) {
		id, data, err := DecodeReadResp(p)
		if err != nil {
			return
		}
		if got := AppendReadResp(nil, id, data); !bytes.Equal(got[FrameHeaderBytes:], p) {
			t.Fatalf("response %x decoded to (%d, %x), which encodes to %x", p, id, data, got[FrameHeaderBytes:])
		}
	})
}

// commitPayload is a commit frame's payload with every header field
// spelled out, valid or not.
func commitPayload(seq, phase, off, total uint64, tail ...byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, seq)
	p = binary.LittleEndian.AppendUint64(p, phase)
	p = binary.LittleEndian.AppendUint64(p, off)
	return append(binary.LittleEndian.AppendUint64(p, total), tail...)
}

func FuzzDecodeCommitHeader(f *testing.F) {
	for _, p := range [][]byte{
		nil,
		commitPayload(1, 1, 0, 0)[:31],
		commitPayload(1, 1, 0, 0)[:16],
		commitPayload(1, 1, 0, 0),
		commitPayload(1, 1, 0, 0, 9),
		commitPayload(0, 4, 0, 0),
		commitPayload(1<<63, 4, 0, 0),
		commitPayload(1, 4, 8193, 8192),
		commitPayload(1, 4, 0, MaxFrame+1),
		commitPayload(1, 4, 0, 1<<63),
		commitPayload(1, 4, 100, 8192),
		commitPayload(2, 9, 8192, 8197, []byte("chunk")...),
		commitPayload(1<<40, 5, MaxFrame, MaxFrame),
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if h, err := DecodeCommitHeader(p); err == nil {
			if h.Seq < 1 || h.Off < 0 || h.Off > h.Total || h.Total > MaxFrame {
				t.Fatalf("payload %x decoded to %+v, outside the header's bounds", p, h)
			}
			chunk := p[CommitHeaderBytes:]
			if got := AppendCommitData(nil, h, chunk); !bytes.Equal(got[FrameHeaderBytes:], p) {
				t.Fatalf("data payload %x decoded to %+v, which encodes to %x", p, h, got[FrameHeaderBytes:])
			}
		}
		if h, err := DecodeCommitEnd(p); err == nil {
			if got := AppendCommitEnd(nil, h); !bytes.Equal(got[FrameHeaderBytes:], p) {
				t.Fatalf("end payload %x decoded to %+v, which encodes to %x", p, h, got[FrameHeaderBytes:])
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	good := EncodeHello(Hello{Rank: 2, Nodes: 4, LittleEndian: NativeLittleEndian(), Caps: SupportedCaps, Prefer: CodecDelta})
	f.Add(good, 4)
	f.Add(good, 2)
	f.Add(good[:16], 4)
	f.Add(append(bytes.Clone(good), 0), 4)
	f.Add(EncodeHello(Hello{Rank: 0, Nodes: 1, LittleEndian: !NativeLittleEndian()}), 1)
	f.Add(EncodeHello(Hello{Rank: -1, Nodes: 3, LittleEndian: NativeLittleEndian()}), 3)
	f.Add([]byte("GET / HTTP/1.1\r\n\r"), 4)
	f.Fuzz(func(t *testing.T, p []byte, nodes int) {
		h, err := DecodeHello(p, nodes)
		if err != nil {
			return
		}
		if h.Rank < 0 || h.Rank >= nodes || h.Nodes != nodes || !h.Caps.Has(CodecRaw) {
			t.Fatalf("hello %x decoded to %+v for a %d-node cluster", p, h, nodes)
		}
		// The bytes need not come back (a peer may leave the raw bit of
		// its caps unset; it is implied), but the value must.
		if again, err := DecodeHello(EncodeHello(h), nodes); err != nil || again != h {
			t.Fatalf("hello %x decoded to %+v, which encodes to one that decodes to %+v (%v)", p, h, again, err)
		}
	})
}

func FuzzDecodeMsg(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeMsg(7, nil, false))
	f.Add(EncodeMsg(-7, []byte{}, true))
	f.Add(EncodeMsg(1<<40, []byte("hello"), true))
	f.Add(EncodeMsg(3, nil, false)[:8])
	f.Add(append(EncodeMsg(3, nil, false), 1)) // a nil payload with a data byte
	f.Fuzz(func(t *testing.T, p []byte) {
		tag, data, hasData, err := DecodeMsg(p)
		if err != nil {
			return
		}
		if got := EncodeMsg(tag, data, hasData); !bytes.Equal(got, p) {
			t.Fatalf("msg %x decoded to (%d, %x, %v), which encodes to %x", p, tag, data, hasData, got)
		}
	})
}

// FuzzReadFrame feeds a byte stream through a bufio.Reader the way a
// connection's reader sees it: frames come off one by one until the stream
// ends or goes wrong, each as it was sent, and what they hold never exceeds
// what the stream did (a length prefix alone buys no memory).
func FuzzReadFrame(f *testing.F) {
	full := AppendFrame(nil, KindMsg, []byte("payload"))
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:3])
	f.Add(AppendFrame(AppendFrame(bytes.Clone(full), KindBye, nil), KindReadReq, bytes.Repeat([]byte{0xAB}, 300)))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrame), KindHello)) // a gigabyte announced, none sent
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
		var again []byte
		for {
			kind, payload, err := ReadFrame(br)
			if err != nil {
				break
			}
			if cap(payload) > 3*len(stream)+readFrameStep {
				t.Fatalf("a %d-byte stream yielded a payload buffer of %d bytes", len(stream), cap(payload))
			}
			again = AppendFrame(again, kind, payload)
		}
		if !bytes.HasPrefix(stream, again) {
			t.Fatalf("stream %x yielded frames that encode to %x", stream, again)
		}
	})
}

// FuzzDecodeCommitDeltaInto: a delta stream either fails to decode or
// decodes, into a buffer a receiver has used before, to a raw stream at
// most a small multiple of its size that the codec carries unchanged:
// Decode(Encode(raw)) == raw.
func FuzzDecodeCommitDeltaInto(f *testing.F) {
	r := rng.New(42)
	for i := 0; i < 4; i++ {
		enc, err := AppendCommitDelta(nil, randomRawStream(r), sizes8and4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte(nil))
	f.Add([]byte{0, 1, deltaSingle}) // one run announced, no element bytes
	f.Add(binary.AppendUvarint([]byte{0, 1, 0}, 1<<62))
	f.Fuzz(func(t *testing.T, enc []byte) {
		used := bytes.Repeat([]byte{0xEE}, 256)
		raw, err := DecodeCommitDeltaInto(used, enc, sizes8and4)
		if err != nil {
			return
		}
		// A run header is at most 22 bytes raw and at least 2 encoded.
		if len(raw) > 16*len(enc)+16 {
			t.Fatalf("a %d-byte delta stream decoded to %d bytes", len(enc), len(raw))
		}
		enc2, err := AppendCommitDelta(nil, raw, sizes8and4)
		if err != nil {
			t.Fatalf("delta stream %x decoded to raw %x, which does not encode: %v", enc, raw, err)
		}
		raw2, err := DecodeCommitDelta(enc2, sizes8and4)
		if err != nil || !bytes.Equal(raw2, raw) {
			t.Fatalf("raw %x encodes to %x, which decodes to %x (%v)", raw, enc2, raw2, err)
		}
	})
}
