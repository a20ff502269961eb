// Package wire defines the binary protocol of the distributed PPM
// runtime: length-prefixed frames carrying the handshake, node-level
// messages (point-to-point sends, reduction and barrier tokens travel as
// ordinary tagged messages), bundled remote reads, phase-commit deltas,
// and abort notices; and the JSON form of result payloads, which leave a
// process as base64 of little-endian words (words.go).
//
// Framing is deliberately minimal: a 4-byte little-endian total length,
// one kind byte, and a kind-specific payload. Frame headers and message
// headers are little-endian (or uvarint) so they are unambiguous on the
// wire; element payloads travel in native byte order, which the
// handshake verifies is the same on both ends (the launcher only spawns
// localhost processes, but the check keeps the failure mode honest).
//
// Commit deltas use a run-length grammar mirroring the runtime's staged
// write records, so the distributed commit applies exactly the runs the
// in-process commit would:
//
//	stream := block*
//	block  := uvarint(arrayID) uvarint(nRuns) run^nRuns
//	run    := u8(flags) uvarint(lo) uvarint(n) uvarint(writer) n*elemBytes
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Protocol identity, checked during the handshake.
const (
	Magic = 0x5050_4d31 // "PPM1"
	// Version 2 made ReadReq vectored (n >= 1 ranges per request);
	// version 3 gave commit frames their exchange ordinal and position.
	Version = 3
)

// MaxFrame bounds one frame (length prefix excluded); a peer announcing
// more is protocol corruption, not a large payload.
const MaxFrame = 1 << 30

// FrameHeaderBytes is what precedes a frame's payload: the length prefix
// and the kind byte.
const FrameHeaderBytes = 5

// Frame kinds.
const (
	KindHello      = byte(iota + 1) // dialer's handshake
	KindHelloAck                    // acceptor's handshake reply
	KindMsg                         // tagged node-level message (mp traffic)
	KindReadReq                     // bundled remote read request
	KindReadResp                    // remote read reply
	KindCommitData                  // one chunk of a phase-commit delta
	KindCommitEnd                   // end of a peer's delta for one phase
	KindAbort                       // fatal error broadcast
	KindBye                         // orderly shutdown announcement (empty payload)
	KindPing                        // failure-detector probe (empty payload)
	KindPong                        // failure-detector reply (empty payload)
)

// NativeLittleEndian reports the host's element byte order, exchanged in
// the handshake.
func NativeLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// AppendFrame appends a complete frame (length prefix, kind, payload) to
// buf and returns the extended slice.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	total := 1 + len(payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	buf = append(buf, kind)
	return append(buf, payload...)
}

// ReadFrameHeader reads a frame's length prefix and kind and returns the
// payload length n; the caller must consume exactly n more bytes from br
// before the next frame. Nothing is allocated: the prefix is inspected in
// br's own buffer.
func ReadFrameHeader(br *bufio.Reader) (kind byte, n int, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	total := binary.LittleEndian.Uint32(hdr)
	if total < 1 || total > MaxFrame {
		return 0, 0, fmt.Errorf("wire: frame length %d out of range [1, %d]", total, MaxFrame)
	}
	br.Discard(4) // cannot fail: the bytes were just peeked
	kind, err = br.ReadByte()
	if err != nil {
		return 0, 0, truncated(err)
	}
	return kind, int(total) - 1, nil
}

// ReadPayload fills p, a frame's payload or a part of it, from br.
func ReadPayload(br *bufio.Reader, p []byte) error {
	if _, err := io.ReadFull(br, p); err != nil {
		return truncated(err)
	}
	return nil
}

func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("wire: truncated frame: %w", err)
}

// readFrameStep is the most a payload buffer grows by before any of its
// bytes have arrived.
const readFrameStep = 64 << 10

// AppendPayload reads a frame's n payload bytes from br and appends them
// to buf. Room buf lacks is grown as the bytes arrive: by readFrameStep
// at first, then by as much again as has arrived, so a payload of up to
// twice readFrameStep grows once to its announced size, and five bytes
// announcing MaxFrame cost readFrameStep, not a gigabyte. A length prefix
// alone never buys memory.
func AppendPayload(buf []byte, br *bufio.Reader, n int) ([]byte, error) {
	start, end := len(buf), len(buf)+n
	for len(buf) < end {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(end-len(buf), max(readFrameStep, len(buf)-start)))
			copy(grown, buf)
			buf = grown
		}
		m := min(end, cap(buf))
		if err := ReadPayload(br, buf[len(buf):m]); err != nil {
			return buf, err
		}
		buf = buf[:m]
	}
	return buf, nil
}

// ReadFrame reads one frame from br, returning its kind and payload. The
// payload is freshly allocated (the caller may retain it) as its bytes
// arrive (AppendPayload): the handshake reads through here what anybody
// who connects cares to send.
func ReadFrame(br *bufio.Reader) (kind byte, payload []byte, err error) {
	kind, n, err := ReadFrameHeader(br)
	if err != nil {
		return 0, nil, err
	}
	if payload, err = AppendPayload(nil, br, n); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

// Hello is the handshake payload exchanged on every connection before
// any traffic; both ends verify magic, version, byte order, and the
// cluster shape, and advertise their commit-stream codec support.
type Hello struct {
	Rank         int
	Nodes        int
	LittleEndian bool
	// Caps is the set of commit-stream codecs this side can decode;
	// Prefer is the codec it wants to send with.
	Caps   CodecCaps
	Prefer Codec
}

// EncodeHello builds a Hello (or HelloAck) payload: 17 bytes, the
// identity block followed by the two codec-negotiation bytes. Zero Caps
// advertise raw only.
func EncodeHello(h Hello) []byte {
	buf := make([]byte, 0, 17)
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	e := byte(0)
	if h.LittleEndian {
		e = 1
	}
	buf = append(buf, e)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Nodes))
	caps := h.Caps
	if caps == 0 {
		caps = 1 << CodecRaw
	}
	return append(buf, byte(caps), byte(h.Prefer))
}

// DecodeHello parses and validates a Hello payload against this side's
// view of the cluster.
func DecodeHello(p []byte, wantNodes int) (Hello, error) {
	if len(p) != 17 {
		return Hello{}, fmt.Errorf("wire: hello payload is %d bytes, want 17", len(p))
	}
	if m := binary.LittleEndian.Uint32(p[0:]); m != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %#x (not a PPM node?)", m)
	}
	if v := binary.LittleEndian.Uint16(p[4:]); v != Version {
		return Hello{}, fmt.Errorf("wire: protocol version mismatch: peer %d, local %d", v, Version)
	}
	h := Hello{
		LittleEndian: p[6] == 1,
		Rank:         int(int32(binary.LittleEndian.Uint32(p[7:]))),
		Nodes:        int(int32(binary.LittleEndian.Uint32(p[11:]))),
		Caps:         CodecCaps(p[15]) | 1<<CodecRaw,
		Prefer:       Codec(p[16]),
	}
	if h.LittleEndian != NativeLittleEndian() {
		return Hello{}, fmt.Errorf("wire: byte-order mismatch with peer rank %d", h.Rank)
	}
	if h.Nodes != wantNodes {
		return Hello{}, fmt.Errorf("wire: peer rank %d believes the cluster has %d nodes, local says %d", h.Rank, h.Nodes, wantNodes)
	}
	if h.Rank < 0 || h.Rank >= wantNodes {
		return Hello{}, fmt.Errorf("wire: peer rank %d out of range [0, %d)", h.Rank, wantNodes)
	}
	return h, nil
}

// EncodeMsg builds a Msg payload: a tagged message with an optional data
// body. hasData distinguishes an empty payload from a nil one (barrier
// and other token messages are nil).
func EncodeMsg(tag int64, data []byte, hasData bool) []byte {
	buf := make([]byte, 0, 9+len(data))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tag))
	b := byte(0)
	if hasData {
		b = 1
	}
	buf = append(buf, b)
	return append(buf, data...)
}

// DecodeMsg parses a Msg payload. data aliases p. The has-data byte is 0
// or 1; anything else is protocol corruption, not a nil payload.
func DecodeMsg(p []byte) (tag int64, data []byte, hasData bool, err error) {
	if len(p) < 9 {
		return 0, nil, false, fmt.Errorf("wire: msg payload is %d bytes, want >= 9", len(p))
	}
	tag = int64(binary.LittleEndian.Uint64(p))
	if p[8] > 1 {
		return 0, nil, false, fmt.Errorf("wire: msg has-data byte is %d, want 0 or 1", p[8])
	}
	hasData = p[8] == 1
	if !hasData && len(p) != 9 {
		return 0, nil, false, fmt.Errorf("wire: nil-payload msg carries %d data bytes", len(p)-9)
	}
	return tag, p[9:], hasData, nil
}

// ReadRange names elements [Lo, Hi) of one shared array in a remote read.
type ReadRange struct {
	Array, Lo, Hi int
}

// readRangeBytes is one encoded ReadRange: u32 array, u64 lo, u64 hi.
const readRangeBytes = 20

// EncodeReadReq builds a ReadReq payload: the request id followed by the
// ranges to fetch from their owner, at least one.
//
//	readreq := u64(id) range^n      n >= 1
//	range   := u32(array) u64(lo) u64(hi)
func EncodeReadReq(id uint64, ranges []ReadRange) []byte {
	buf := make([]byte, 0, 8+readRangeBytes*len(ranges))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	for _, r := range ranges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Array))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Hi))
	}
	return buf
}

// DecodeReadReq parses a ReadReq payload. A request with no range, with
// trailing bytes, or with an inverted range is protocol corruption.
func DecodeReadReq(p []byte) (id uint64, ranges []ReadRange, err error) {
	if len(p) < 8+readRangeBytes || (len(p)-8)%readRangeBytes != 0 {
		return 0, nil, fmt.Errorf("wire: read request is %d bytes, want 8+%dn with n >= 1", len(p), readRangeBytes)
	}
	id = binary.LittleEndian.Uint64(p)
	ranges = make([]ReadRange, (len(p)-8)/readRangeBytes)
	for i := range ranges {
		q := p[8+readRangeBytes*i:]
		r := ReadRange{
			Array: int(int32(binary.LittleEndian.Uint32(q))),
			Lo:    int(int64(binary.LittleEndian.Uint64(q[4:]))),
			Hi:    int(int64(binary.LittleEndian.Uint64(q[12:]))),
		}
		if r.Lo > r.Hi {
			return 0, nil, fmt.Errorf("wire: read request range %d is inverted: array %d [%d:%d)", i, r.Array, r.Lo, r.Hi)
		}
		ranges[i] = r
	}
	return id, ranges, nil
}

// AppendReadResp appends a complete ReadResp frame to buf: the request id
// and after it data, the requested ranges' bytes concatenated in request
// order. data is copied, once.
func AppendReadResp(buf []byte, id uint64, data []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+8+len(data)))
	buf = append(buf, KindReadResp)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, data...)
}

// ReadRespHeaderBytes is the request id that opens a ReadResp payload.
const ReadRespHeaderBytes = 8

// DecodeReadResp parses a ReadResp payload. data aliases p; only the
// requester knows the ranges' element sizes, so it checks the length. p
// may be the header alone, for a reader that takes the data apart from
// the id, into a buffer of its own.
func DecodeReadResp(p []byte) (id uint64, data []byte, err error) {
	if len(p) < ReadRespHeaderBytes {
		return 0, nil, fmt.Errorf("wire: read response is %d bytes, want >= %d", len(p), ReadRespHeaderBytes)
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// CommitHeader opens both commit payloads. It names the stream a frame
// belongs to, how long that stream is and where in it the frame sits, so
// the receiver can size the stream once, and tell a repeated frame from
// new data and a lost frame from the end.
//
//	commitdata := header chunk      the chunk is stream[off : off+len(chunk)]
//	commitend  := header            off = total
//	header     := u64(seq) u64(phase) u64(off) u64(total)
type CommitHeader struct {
	// Seq is the exchange's ordinal on this mesh, counted from 1 over the
	// engines' lifetime: every rank's n-th exchange is the same phase of
	// the same job, and unlike Phase it never repeats when the next job
	// restarts its phase numbers.
	Seq int64
	// Phase is the runtime's phase number, carried so that ranks that
	// disagree on it fail with both numbers named.
	Phase int64
	// Off is the frame's position in the stream, Total the stream's
	// length: Off <= Total <= MaxFrame (a stream is bounded like a frame).
	Off, Total int
}

// CommitHeaderBytes is the encoded size of a CommitHeader.
const CommitHeaderBytes = 32

func appendCommitFrame(buf []byte, kind byte, h CommitHeader, chunkLen int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+CommitHeaderBytes+chunkLen))
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Seq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Phase))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Off))
	return binary.LittleEndian.AppendUint64(buf, uint64(h.Total))
}

// AppendCommitData appends a complete CommitData frame — the chunk at
// h.Off of a commit stream — to buf. chunk is copied, once.
func AppendCommitData(buf []byte, h CommitHeader, chunk []byte) []byte {
	return append(appendCommitFrame(buf, KindCommitData, h, len(chunk)), chunk...)
}

// AppendCommitEnd appends a complete CommitEnd frame to buf: the stream
// of h.Total bytes is over (h.Off is ignored).
func AppendCommitEnd(buf []byte, h CommitHeader) []byte {
	h.Off = h.Total
	return appendCommitFrame(buf, KindCommitEnd, h, 0)
}

// DecodeCommitHeader parses the header at the start of a commit payload.
func DecodeCommitHeader(p []byte) (CommitHeader, error) {
	if len(p) < CommitHeaderBytes {
		return CommitHeader{}, fmt.Errorf("wire: commit frame is %d bytes, want >= %d", len(p), CommitHeaderBytes)
	}
	h := CommitHeader{
		Seq:   int64(binary.LittleEndian.Uint64(p)),
		Phase: int64(binary.LittleEndian.Uint64(p[8:])),
	}
	off, total := binary.LittleEndian.Uint64(p[16:]), binary.LittleEndian.Uint64(p[24:])
	if h.Seq < 1 {
		return CommitHeader{}, fmt.Errorf("wire: commit frame of phase %d has exchange ordinal %d", h.Phase, h.Seq)
	}
	if total > MaxFrame {
		return CommitHeader{}, fmt.Errorf("wire: commit stream of phase %d announces %d bytes, above the %d-byte bound", h.Phase, total, MaxFrame)
	}
	if off > total {
		return CommitHeader{}, fmt.Errorf("wire: commit frame of phase %d is at offset %d of a %d-byte stream", h.Phase, off, total)
	}
	h.Off, h.Total = int(off), int(total)
	return h, nil
}

// DecodeCommitEnd parses a CommitEnd payload.
func DecodeCommitEnd(p []byte) (CommitHeader, error) {
	if len(p) != CommitHeaderBytes {
		return CommitHeader{}, fmt.Errorf("wire: commit end is %d bytes, want %d", len(p), CommitHeaderBytes)
	}
	h, err := DecodeCommitHeader(p)
	if err == nil && h.Off != h.Total {
		err = fmt.Errorf("wire: commit end of phase %d is at offset %d of a %d-byte stream", h.Phase, h.Off, h.Total)
	}
	return h, err
}

// EncodeAbort builds an Abort payload from the fatal error's message.
func EncodeAbort(msg string) []byte { return []byte(msg) }

// DecodeAbort parses an Abort payload.
func DecodeAbort(p []byte) string { return string(p) }

// RunHeader describes one run of a commit block: n consecutive elements
// starting at lo, written (or added, per Add) by the identified writer.
type RunHeader struct {
	Lo, N  int
	Writer int64
	Add    bool
}

const runFlagAdd = 1

// AppendBlockHeader starts a commit block for one array.
func AppendBlockHeader(buf []byte, array, nRuns int) []byte {
	buf = binary.AppendUvarint(buf, uint64(array))
	return binary.AppendUvarint(buf, uint64(nRuns))
}

// AppendRunHeader appends one run header; the caller appends the run's
// n*elemBytes of native-order element bytes immediately after.
func AppendRunHeader(buf []byte, h RunHeader) []byte {
	flags := byte(0)
	if h.Add {
		flags = runFlagAdd
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(h.Lo))
	buf = binary.AppendUvarint(buf, uint64(h.N))
	return binary.AppendUvarint(buf, uint64(h.Writer))
}

// CommitReader iterates a commit stream (the concatenation of a peer's
// CommitData chunks for one phase).
type CommitReader struct {
	data []byte
	off  int
}

// NewCommitReader wraps a complete commit stream.
func NewCommitReader(data []byte) *CommitReader { return &CommitReader{data: data} }

// Reset repoints the reader at a new stream, allowing value reuse
// without reallocating the reader.
func (r *CommitReader) Reset(data []byte) {
	r.data = data
	r.off = 0
}

// More reports whether another block follows.
func (r *CommitReader) More() bool { return r.off < len(r.data) }

func (r *CommitReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: corrupt commit stream at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Block reads the next block header.
func (r *CommitReader) Block() (array, nRuns int, err error) {
	a, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(a), int(n), nil
}

// Run reads the next run of the current block; raw holds the run's
// n*elemBytes element bytes and aliases the stream.
func (r *CommitReader) Run(elemBytes int) (h RunHeader, raw []byte, err error) {
	if r.off >= len(r.data) {
		return h, nil, fmt.Errorf("wire: commit stream ends inside a block")
	}
	h.Add = r.data[r.off]&runFlagAdd != 0
	r.off++
	lo, err := r.uvarint()
	if err != nil {
		return h, nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return h, nil, err
	}
	w, err := r.uvarint()
	if err != nil {
		return h, nil, err
	}
	h.Lo, h.N, h.Writer = int(lo), int(n), int64(w)
	nb := h.N * elemBytes
	if h.N < 0 || nb < 0 || r.off+nb > len(r.data) {
		return h, nil, fmt.Errorf("wire: commit run of %d elements overruns the stream", h.N)
	}
	raw = r.data[r.off : r.off+nb]
	r.off += nb
	return h, raw, nil
}
