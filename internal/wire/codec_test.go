package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ppm/internal/rng"
)

// sizes8and4 is the elemBytes callback of a run with two arrays: id 0
// holds float64s, id 1 holds float32s, anything else is unknown.
func sizes8and4(array int) int {
	switch array {
	case 0:
		return 8
	case 1:
		return 4
	}
	return 0
}

// randomRawStream builds a syntactically valid raw commit stream with
// adversarial shapes: unordered offsets, zero-length runs, writer
// jumps, and both element sizes.
func randomRawStream(r *rng.RNG) []byte {
	var buf []byte
	nBlocks := 1 + r.Intn(4)
	for b := 0; b < nBlocks; b++ {
		array := r.Intn(2)
		es := sizes8and4(array)
		nRuns := r.Intn(6)
		buf = AppendBlockHeader(buf, array, nRuns)
		for i := 0; i < nRuns; i++ {
			n := r.Intn(4) // zero-length runs are legal
			h := RunHeader{
				Lo:     r.Intn(1 << 20),
				N:      n,
				Writer: int64(r.Intn(1 << 16)),
				Add:    r.Intn(2) == 0,
			}
			buf = AppendRunHeader(buf, h)
			for k := 0; k < n*es; k++ {
				buf = append(buf, byte(r.Uint64()))
			}
		}
	}
	return buf
}

func TestCommitDeltaRoundTrip(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		raw := randomRawStream(r)
		enc, err := AppendCommitDelta(nil, raw, sizes8and4)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		dec, err := DecodeCommitDelta(enc, sizes8and4)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !bytes.Equal(raw, dec) {
			t.Fatalf("trial %d: round trip changed the stream (%d -> %d -> %d bytes)",
				trial, len(raw), len(enc), len(dec))
		}
	}
	// The empty stream is its own encoding.
	if enc, err := AppendCommitDelta(nil, nil, sizes8and4); err != nil || len(enc) != 0 {
		t.Errorf("empty stream encoded to %d bytes, err %v", len(enc), err)
	}
	if dec, err := DecodeCommitDelta(nil, sizes8and4); err != nil || len(dec) != 0 {
		t.Errorf("empty stream decoded to %d bytes, err %v", len(dec), err)
	}
}

// cgScatterStream models the write set the delta codec targets: a CG /
// stencil transpose scatter — single-element Add runs at small
// ascending strides, long stretches from one writer, offsets deep in a
// large array.
func cgScatterStream(r *rng.RNG, nRuns int) []byte {
	var buf []byte
	buf = AppendBlockHeader(buf, 0, nRuns)
	lo := 100_000 + r.Intn(10_000)
	writer := int64(r.Intn(64))
	for i := 0; i < nRuns; i++ {
		if i > 0 && r.Intn(32) == 0 {
			writer = int64(r.Intn(1024))
			lo += r.Intn(4096)
		}
		lo += 1 + r.Intn(8)
		buf = AppendRunHeader(buf, RunHeader{Lo: lo, N: 1, Writer: writer, Add: true})
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.NormFloat64()))
	}
	return buf
}

func TestCommitDeltaRatioOnScatterStream(t *testing.T) {
	raw := cgScatterStream(rng.New(7), 20_000)
	enc, err := AppendCommitDelta(nil, raw, sizes8and4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCommitDelta(enc, sizes8and4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, dec) {
		t.Fatal("scatter stream round trip changed the stream")
	}
	ratio := float64(len(raw)) / float64(len(enc))
	if ratio < 1.5 {
		t.Errorf("delta codec compresses the scatter stream %d -> %d bytes (%.2fx), want >= 1.5x",
			len(raw), len(enc), ratio)
	}
	t.Logf("scatter stream: raw %d bytes, delta %d bytes (%.2fx)", len(raw), len(enc), ratio)
}

// TestCommitDeltaNeverMateriallyLarger checks the codec's size bound on
// adversarial streams: the delta form may exceed raw only by the small
// per-run header slack, never by payload expansion.
func TestCommitDeltaNeverMateriallyLarger(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 100; trial++ {
		raw := randomRawStream(r)
		enc, err := AppendCommitDelta(nil, raw, sizes8and4)
		if err != nil {
			t.Fatal(err)
		}
		// Count the runs for the slack bound.
		runs := 0
		rd := NewCommitReader(raw)
		for rd.More() {
			a, n, err := rd.Block()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, _, err := rd.Run(sizes8and4(a)); err != nil {
					t.Fatal(err)
				}
			}
			runs += n
		}
		if len(enc) > len(raw)+3*runs {
			t.Fatalf("trial %d: delta %d bytes vs raw %d with %d runs: exceeds slack bound",
				trial, len(enc), len(raw), runs)
		}
	}
}

// TestCommitDeltaCorruptInput drives the decoder over truncations and
// bit flips of a valid stream: every outcome must be a clean error or a
// clean decode (truncation at a block boundary is a legal shorter
// stream), never a panic or an unterminated parse.
func TestCommitDeltaCorruptInput(t *testing.T) {
	raw := cgScatterStream(rng.New(3), 200)
	enc, err := AppendCommitDelta(nil, raw, sizes8and4)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCommitDelta(enc[:cut], sizes8and4); err == nil && cut != 0 {
			// Only a prefix ending exactly on a block boundary may decode;
			// for this single-block stream that is offset 0 alone.
			t.Errorf("truncation at %d/%d decoded cleanly", cut, len(enc))
		}
	}
	r := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		dec, err := DecodeCommitDelta(mut, sizes8and4)
		if err != nil {
			continue
		}
		// A surviving decode must still be a valid raw stream.
		rd := NewCommitReader(dec)
		for rd.More() {
			a, n, err := rd.Block()
			if err != nil {
				break
			}
			es := sizes8and4(a)
			if es <= 0 {
				break
			}
			ok := true
			for i := 0; i < n && ok; i++ {
				_, _, err := rd.Run(es)
				ok = err == nil
			}
			if !ok {
				break
			}
		}
	}
}

func TestCodecParseAndString(t *testing.T) {
	for _, c := range []Codec{CodecRaw, CodecDelta} {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Error("unknown codec name accepted")
	}
	if !SupportedCaps.Has(CodecRaw) || !SupportedCaps.Has(CodecDelta) {
		t.Error("SupportedCaps must include raw and delta")
	}
}
