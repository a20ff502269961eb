package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// specialBits are the float64 words decimal JSON cannot carry or would
// round: NaNs with payloads and either sign, the infinities, -0, the
// smallest and largest subnormals, and the extremes of the normals.
var specialBits = []uint64{
	0x7ff8000000000000, // the quiet NaN math.NaN returns
	0x7ff8000000000001, // a quiet NaN with a payload
	0x7ff0000000000001, // a signalling NaN
	0xfff8deadbeef0042, // a negative NaN with a payload
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x000fffffffffffff, // largest subnormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest finite
	0x3ff0000000000000, // 1
}

type payload struct {
	F Float64s `json:"f"`
	I Int64s   `json:"i,omitempty"`
	S Float64  `json:"s"`
}

func TestWordsRoundTripBitExact(t *testing.T) {
	in := payload{
		I: Int64s{math.MinInt64, -1, 0, 1, math.MaxInt64},
		S: Float64(math.Float64frombits(0xfff8deadbeef0042)),
	}
	for _, b := range specialBits {
		in.F = append(in.F, math.Float64frombits(b))
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	if len(out.F) != len(in.F) || len(out.I) != len(in.I) {
		t.Fatalf("%s decoded to %d floats and %d ints, want %d and %d", raw, len(out.F), len(out.I), len(in.F), len(in.I))
	}
	for i := range in.F {
		if got, want := math.Float64bits(out.F[i]), math.Float64bits(in.F[i]); got != want {
			t.Errorf("f[%d] = %#016x, want %#016x", i, got, want)
		}
	}
	for i := range in.I {
		if out.I[i] != in.I[i] {
			t.Errorf("i[%d] = %d, want %d", i, out.I[i], in.I[i])
		}
	}
	if got, want := math.Float64bits(float64(out.S)), math.Float64bits(float64(in.S)); got != want {
		t.Errorf("s = %#016x, want %#016x", got, want)
	}
}

// The wire form is little-endian words, whatever the host: 1.0 is the
// bytes 00 00 00 00 00 00 f0 3f, and 1 is 01 followed by seven zeros.
func TestWordsForm(t *testing.T) {
	raw, err := json.Marshal(payload{F: Float64s{1}, I: Int64s{1}, S: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"f":"AAAAAAAA8D8=","i":"AQAAAAAAAAA=","s":"AAAAAAAA8D8="}`; string(raw) != want {
		t.Fatalf("encoded %s, want %s", raw, want)
	}
	raw, err = json.Marshal(payload{})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"f":"","s":"AAAAAAAAAAA="}`; string(raw) != want {
		t.Fatalf("empty payload encoded %s, want %s", raw, want)
	}
	for _, empty := range []string{`{"f":""}`, `{"f":null}`, `{}`} {
		var p payload
		if err := json.Unmarshal([]byte(empty), &p); err != nil || len(p.F) != 0 {
			t.Errorf("%s: decoded %v, %v; want an empty slice", empty, p.F, err)
		}
	}
}

// A refusal names the field: encoding/json completes the decoder's
// UnmarshalTypeError with the struct and field it was filling.
func TestWordsRefused(t *testing.T) {
	for raw, want := range map[string]string{
		`{"f":"AAAAAAAA8D8"}`:               "payload.f", // not whole 4-byte groups
		`{"f":"AAAAAAA="}`:                  "not whole 8-byte words",
		`{"f":"AAAA"}`:                      "not whole 8-byte words",
		`{"f":"AAAAAA*A8D8="}`:              "invalid base64",
		`{"f":"AAAAAAAA8D9="}`:              "invalid base64", // nonzero padding bits
		`{"f":"AAAA\nAAA8D8="}`:             "invalid base64", // a line break
		`{"f":"AAAAAAAAAAAAAAAAAAAA\nA=="}`: "invalid base64", // in the last group
		`{"f":"AA==AAAAAAA="}`:              "invalid base64", // padding inside
		`{"i":"AQAAAAAAAA=="}`:              "payload.i",
		`{"s":"AAAAAAAAAAAAAAAAAAAAAA=="}`:  "not 1",
		`{"s":""}`:                          "payload.s",
		`{"f":[1,2]}`:                       "payload.f",
	} {
		var p payload
		err := json.Unmarshal([]byte(raw), &p)
		if err == nil {
			t.Errorf("%s: decoded to %+v, want an error", raw, p)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", raw, err, want)
		}
	}
}

// The decoder allocates the slice it returns and nothing else.
func TestWordsDecodeAllocatesOnce(t *testing.T) {
	text, _ := Float64s(make([]float64, 1000)).MarshalText()
	var f Float64s
	if n := testing.AllocsPerRun(20, func() {
		if err := f.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decoding %d words allocates %v times, want 1", len(f), n)
	}
	if cap(f) != 1000 {
		t.Fatalf("decoded slice has capacity %d, want 1000", cap(f))
	}
}
