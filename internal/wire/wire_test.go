package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func roundtripFrame(t *testing.T, kind byte, payload []byte) []byte {
	t.Helper()
	framed := AppendFrame(nil, kind, payload)
	gotKind, gotPayload, err := ReadFrame(bufio.NewReader(bytes.NewReader(framed)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if gotKind != kind {
		t.Fatalf("kind = %d, want %d", gotKind, kind)
	}
	return gotPayload
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 4096)} {
		got := roundtripFrame(t, KindMsg, payload)
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestFrameStreamsBackToBack(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, KindMsg, []byte("one"))
	buf = AppendCommitEnd(buf, CommitHeader{Seq: 3, Phase: 7, Total: 4096})
	br := bufio.NewReader(bytes.NewReader(buf))
	k1, p1, err := ReadFrame(br)
	if err != nil || k1 != KindMsg || string(p1) != "one" {
		t.Fatalf("first frame = (%d, %q, %v)", k1, p1, err)
	}
	k2, p2, err := ReadFrame(br)
	if err != nil || k2 != KindCommitEnd {
		t.Fatalf("second frame = (%d, %v)", k2, err)
	}
	if h, err := DecodeCommitEnd(p2); err != nil || h != (CommitHeader{Seq: 3, Phase: 7, Off: 4096, Total: 4096}) {
		t.Fatalf("commit end = (%+v, %v)", h, err)
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

func TestFrameTruncatedAndOversized(t *testing.T) {
	full := AppendFrame(nil, KindMsg, []byte("payload"))
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:len(full)-3]))); err == nil {
		t.Fatal("truncated frame: want error")
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], MaxFrame+1)
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge[:]))); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized frame err = %v", err)
	}
	var zero [4]byte
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(zero[:]))); err == nil {
		t.Fatal("zero-length frame: want error")
	}
}

// A frame that announces MaxFrame bytes and sends a few fails as
// truncated without the gigabyte having been allocated, and a long frame
// that does arrive comes back whole.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	liar := append(binary.LittleEndian.AppendUint32(nil, MaxFrame), KindHello, 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(liar)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*readFrameStep {
		t.Errorf("a 5-byte header and 3 bytes of payload cost %d bytes of allocation", got)
	}
	long := bytes.Repeat([]byte("0123456789abcdef"), 3*readFrameStep/16+1)
	kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(AppendFrame(nil, KindReadResp, long))))
	if err != nil || kind != KindReadResp || !bytes.Equal(payload, long) {
		t.Fatalf("a %d-byte frame came back as kind %d, %d bytes, err %v", len(long), kind, len(payload), err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Rank: 3, Nodes: 8, LittleEndian: NativeLittleEndian(), Caps: SupportedCaps, Prefer: CodecDelta}
	got, err := DecodeHello(EncodeHello(h), 8)
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if got != h {
		t.Fatalf("hello = %+v, want %+v", got, h)
	}
	if _, err := DecodeHello(EncodeHello(h), 4); err == nil {
		t.Fatal("node-count mismatch: want error")
	}
	bad := EncodeHello(h)
	bad[0]++
	if _, err := DecodeHello(bad, 8); err == nil {
		t.Fatal("bad magic: want error")
	}
}

func TestMsgRoundTrip(t *testing.T) {
	tag, data, hasData, err := DecodeMsg(EncodeMsg(42, []byte{9, 8, 7}, true))
	if err != nil || tag != 42 || !hasData || !bytes.Equal(data, []byte{9, 8, 7}) {
		t.Fatalf("msg = (%d, %v, %v, %v)", tag, data, hasData, err)
	}
	// Nil payload (a barrier token) is distinguishable from empty data.
	tag, data, hasData, err = DecodeMsg(EncodeMsg(1<<24, nil, false))
	if err != nil || tag != 1<<24 || hasData || len(data) != 0 {
		t.Fatalf("nil msg = (%d, %v, %v, %v)", tag, data, hasData, err)
	}
	if _, _, _, err := DecodeMsg([]byte{1, 2}); err == nil {
		t.Fatal("short msg: want error")
	}
	// A has-data byte that is neither 0 nor 1 (the fuzzer's first find:
	// testdata/fuzz/FuzzDecodeMsg) used to pass for a nil payload.
	if _, _, _, err := DecodeMsg(append(EncodeMsg(5, nil, false)[:8], 2)); err == nil || !strings.Contains(err.Error(), "has-data byte is 2") {
		t.Fatalf("has-data byte 2: err = %v", err)
	}
}

func TestReadReqRespRoundTrip(t *testing.T) {
	for _, ranges := range [][]ReadRange{
		{{Array: 2, Lo: 10, Hi: 250}},
		{{Array: 0, Lo: 0, Hi: 0}}, // an empty range is legal: it carries no bytes
		{{Array: 7, Lo: 1 << 40, Hi: 1<<40 + 3}, {Array: 0, Lo: 5, Hi: 6}, {Array: 7, Lo: 0, Hi: 9}},
	} {
		p := EncodeReadReq(99, ranges)
		if len(p) != 8+20*len(ranges) {
			t.Fatalf("%d ranges encode to %d bytes, want %d", len(ranges), len(p), 8+20*len(ranges))
		}
		id, got, err := DecodeReadReq(p)
		if err != nil || id != 99 || !slices.Equal(got, ranges) {
			t.Fatalf("read req %v = (%d, %v, %v)", ranges, id, got, err)
		}
	}
	// AppendReadResp writes the frame whole, id beside data; on the wire it
	// is the ordinary frame of an id-then-data payload, as in version 3.
	frame := AppendReadResp([]byte{0xAA}, 99, []byte{5, 6})
	if want := AppendFrame([]byte{0xAA}, KindReadResp, []byte{99, 0, 0, 0, 0, 0, 0, 0, 5, 6}); !bytes.Equal(frame, want) {
		t.Fatalf("read resp frame = %v, want %v", frame, want)
	}
	kind, resp, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[1:])))
	if err != nil || kind != KindReadResp {
		t.Fatalf("read resp frame reads back as kind %d, err %v", kind, err)
	}
	gotID, data, err := DecodeReadResp(resp)
	if err != nil || gotID != 99 || !bytes.Equal(data, []byte{5, 6}) {
		t.Fatalf("read resp = (%d, %v, %v)", gotID, data, err)
	}
}

func TestReadReqRespMalformed(t *testing.T) {
	good := EncodeReadReq(1, []ReadRange{{Array: 1, Lo: 2, Hi: 3}, {Array: 1, Lo: 8, Hi: 9}})
	for _, tc := range []struct {
		name string
		p    []byte
		want string
	}{
		{"empty", nil, "want 8+20n"},
		{"no range", good[:8], "n >= 1"},
		{"cut inside a range", good[:8+20+7], "want 8+20n"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "want 8+20n"},
		{"inverted range", EncodeReadReq(1, []ReadRange{{Array: 1, Lo: 2, Hi: 3}, {Array: 4, Lo: 9, Hi: 8}}), "range 1 is inverted: array 4 [9:8)"},
	} {
		_, _, err := DecodeReadReq(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := DecodeReadResp(good[:7]); err == nil {
		t.Error("7-byte read response: want error")
	}
}

// The two commit frames, byte for byte: length prefix, kind, then the
// 32-byte header (exchange ordinal, phase, offset, stream total) and, for
// data, the chunk. The appenders write whole frames, so this is also the
// wire table.
func TestCommitFramesWireTable(t *testing.T) {
	le64 := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	for _, tc := range []struct {
		name  string
		frame []byte
		kind  byte
		h     CommitHeader // as decoded
		chunk []byte
	}{
		{"data", AppendCommitData(nil, CommitHeader{Seq: 2, Phase: 9, Off: 8192, Total: 8197}, []byte("chunk")), KindCommitData,
			CommitHeader{Seq: 2, Phase: 9, Off: 8192, Total: 8197}, []byte("chunk")},
		{"data, empty chunk", AppendCommitData(nil, CommitHeader{Seq: 1, Phase: 1}, nil), KindCommitData,
			CommitHeader{Seq: 1, Phase: 1}, nil},
		{"end", AppendCommitEnd(nil, CommitHeader{Seq: 1 << 40, Phase: 5, Total: MaxFrame}), KindCommitEnd,
			CommitHeader{Seq: 1 << 40, Phase: 5, Off: MaxFrame, Total: MaxFrame}, nil},
		{"end of an empty stream", AppendCommitEnd(nil, CommitHeader{Seq: 7, Phase: 3}), KindCommitEnd,
			CommitHeader{Seq: 7, Phase: 3}, nil},
	} {
		want := binary.LittleEndian.AppendUint32(nil, uint32(1+CommitHeaderBytes+len(tc.chunk)))
		want = append(want, tc.kind)
		want = append(want, le64(tc.h.Seq)...)
		want = append(want, le64(tc.h.Phase)...)
		want = append(want, le64(int64(tc.h.Off))...)
		want = append(want, le64(int64(tc.h.Total))...)
		want = append(want, tc.chunk...)
		if !bytes.Equal(tc.frame, want) {
			t.Errorf("%s: frame = %x, want %x", tc.name, tc.frame, want)
			continue
		}
		kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.frame)))
		if err != nil || kind != tc.kind {
			t.Errorf("%s: ReadFrame = (%d, %v)", tc.name, kind, err)
			continue
		}
		h, err := DecodeCommitHeader(payload)
		if err != nil || h != tc.h || !bytes.Equal(payload[CommitHeaderBytes:], tc.chunk) {
			t.Errorf("%s: decoded (%+v, %q, %v), want (%+v, %q)", tc.name, h, payload[CommitHeaderBytes:], err, tc.h, tc.chunk)
		}
		if tc.kind == KindCommitEnd {
			if h, err := DecodeCommitEnd(payload); err != nil || h != tc.h {
				t.Errorf("%s: DecodeCommitEnd = (%+v, %v)", tc.name, h, err)
			}
		}
	}
}

func TestCommitFramesMalformed(t *testing.T) {
	payload := commitPayload // fuzz_test.go: the fuzz target's seeds are these rows
	for _, tc := range []struct {
		name string
		p    []byte
		end  bool
		want string
	}{
		{"empty", nil, false, "want >= 32"},
		{"short header", payload(1, 1, 0, 0)[:31], false, "want >= 32"},
		{"header cut to half", payload(1, 1, 0, 0)[:16], true, "want 32"},
		{"end with a tail", payload(1, 1, 0, 0, 9), true, "want 32"},
		{"ordinal zero", payload(0, 4, 0, 0), false, "exchange ordinal 0"},
		{"ordinal negative", payload(1<<63, 4, 0, 0), true, "exchange ordinal"},
		{"offset beyond total", payload(1, 4, 8193, 8192), false, "phase 4 is at offset 8193 of a 8192-byte stream"},
		{"total above the bound", payload(1, 4, 0, MaxFrame+1), false, "above the 1073741824-byte bound"},
		{"total that would go negative", payload(1, 4, 0, 1<<63), true, "above the"},
		{"end before the total", payload(1, 4, 100, 8192), true, "end of phase 4 is at offset 100"},
	} {
		var err error
		if tc.end {
			_, err = DecodeCommitEnd(tc.p)
		} else {
			_, err = DecodeCommitHeader(tc.p)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// Reading a frame in pieces — header, then the payload into a buffer the
// caller already has — allocates nothing; ReadFrame pays for the payload
// it hands out and for nothing else.
func TestReadFrameHeaderAllocatesNothing(t *testing.T) {
	frame := AppendCommitData(nil, CommitHeader{Seq: 1, Phase: 1}, bytes.Repeat([]byte{7}, 8192))
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, 64<<10)
	dst := make([]byte, len(frame)-FrameHeaderBytes)
	piecewise := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		kind, n, err := ReadFrameHeader(br)
		if err != nil || kind != KindCommitData || n != len(dst) {
			t.Fatalf("ReadFrameHeader = (%d, %d, %v)", kind, n, err)
		}
		if err := ReadPayload(br, dst); err != nil {
			t.Fatal(err)
		}
	})
	if piecewise != 0 {
		t.Errorf("header + payload into a caller's buffer: %v allocs, want 0", piecewise)
	}
	whole := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	})
	if whole != 1 {
		t.Errorf("ReadFrame: %v allocs, want 1 (the payload)", whole)
	}
	if !bytes.Equal(dst[CommitHeaderBytes:], frame[FrameHeaderBytes+CommitHeaderBytes:]) {
		t.Error("payload read in pieces differs from the frame's")
	}
}

func TestCommitStreamRoundTrip(t *testing.T) {
	vals := []float64{1.5, math.Pi, -0.25}
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	var buf []byte
	buf = AppendBlockHeader(buf, 4, 2)
	buf = AppendRunHeader(buf, RunHeader{Lo: 100, N: 3, Writer: (2 << 32) | 7})
	buf = append(buf, raw...)
	buf = AppendRunHeader(buf, RunHeader{Lo: 0, N: 1, Writer: 1, Add: true})
	buf = append(buf, raw[:8]...)
	buf = AppendBlockHeader(buf, 9, 0)

	r := NewCommitReader(buf)
	if !r.More() {
		t.Fatal("More() = false on non-empty stream")
	}
	array, nRuns, err := r.Block()
	if err != nil || array != 4 || nRuns != 2 {
		t.Fatalf("block 1 = (%d, %d, %v)", array, nRuns, err)
	}
	h, b, err := r.Run(8)
	if err != nil || h.Lo != 100 || h.N != 3 || h.Writer != (2<<32)|7 || h.Add || !bytes.Equal(b, raw) {
		t.Fatalf("run 1 = (%+v, %v)", h, err)
	}
	h, b, err = r.Run(8)
	if err != nil || h.Lo != 0 || h.N != 1 || !h.Add || !bytes.Equal(b, raw[:8]) {
		t.Fatalf("run 2 = (%+v, %v)", h, err)
	}
	array, nRuns, err = r.Block()
	if err != nil || array != 9 || nRuns != 0 {
		t.Fatalf("block 2 = (%d, %d, %v)", array, nRuns, err)
	}
	if r.More() {
		t.Fatal("More() = true at end of stream")
	}
}

func TestCommitStreamCorruption(t *testing.T) {
	var buf []byte
	buf = AppendBlockHeader(buf, 1, 1)
	buf = AppendRunHeader(buf, RunHeader{Lo: 0, N: 10, Writer: 0})
	// Run claims 10 elements but carries only 4 bytes.
	buf = append(buf, 1, 2, 3, 4)
	r := NewCommitReader(buf)
	if _, _, err := r.Block(); err != nil {
		t.Fatalf("Block: %v", err)
	}
	if _, _, err := r.Run(8); err == nil {
		t.Fatal("overrunning run: want error")
	}
	if _, _, err := NewCommitReader([]byte{0x80}).Block(); err == nil {
		t.Fatal("corrupt uvarint: want error")
	}
}
