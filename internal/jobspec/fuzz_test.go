package jobspec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"ppm/internal/apps/cg"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/wire"
)

// FuzzNodeJob holds the one job decoder (a serve node's stdin line; the
// spec inside it is what -spec-json, -spec and a submission body carry)
// to its contract: whatever the bytes, no panic in decoding,
// normalizing, validating or hashing; and a spec that Validate accepts
// is a fixed point of Normalize and survives a JSON round trip with its
// Hash. The seeds are the example jobs and TestValidateChecksParameters'
// refused blocks.
func FuzzNodeJob(f *testing.F) {
	examples, err := filepath.Glob("../../examples/jobs/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example jobs to seed from (%v)", err)
	}
	for _, path := range examples {
		spec, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"id":"` + filepath.Base(path) + `","spec":` + string(spec) + `}`))
	}
	for raw := range badParamBlocks {
		f.Add([]byte(`{"id":"bad","spec":` + raw + `}`))
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{"id":"j","spec":{"app":"no-such-app","nodes":-1}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var j NodeJob
		if json.Unmarshal(line, &j) != nil {
			return
		}
		s := &j.Spec
		s.Normalize()
		err := s.Validate()
		hash := s.Hash()
		if err != nil {
			return
		}
		once, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		if twice, _ := json.Marshal(s.Normalize()); !bytes.Equal(once, twice) {
			t.Fatalf("Normalize is not idempotent:\n once %s\ntwice %s", once, twice)
		}
		var back Spec
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("accepted spec %s does not decode: %v", once, err)
		}
		if got := back.Normalize().Hash(); got != hash {
			t.Fatalf("JSON round trip of %s changed the hash: %s, want %s", once, got, hash)
		}
	})
}

// FuzzResultDecode holds the result decoders (a Result as the HTTP API
// serves it, a NodeReply as a node writes it on its stdout pipe) to their
// contract, whatever the bytes:
//   - no panic;
//   - the input taken as one payload string decodes only if it is the
//     canonical base64 of whole 8-byte words (it re-encodes to itself),
//     into at most its own length in bytes;
//   - decoding either document allocates within a small multiple of the
//     input, plus what encoding/json allocates for each object it fills
//     (an array of empty per-node statistics costs that, not the words);
//   - what decodes encodes back to JSON that decodes to the same bits.
func FuzzResultDecode(f *testing.F) {
	res, err := RunLocal((&Spec{App: "cg", Nodes: 2, Cores: 1, CG: &cg.Params{NX: 3, NY: 3, NZ: 3, MaxIter: 2}}).Normalize())
	if err != nil {
		f.Fatal(err)
	}
	cgResult, _ := json.Marshal(res)
	f.Add(cgResult)
	n := len(res.Series) - 1
	reply, _ := json.Marshal(dist.NodeReply{ID: "j", Done: true, Result: &dist.NodeResult{
		Stats: res.PerNode[0],
		CG:    &dist.CGFrag{X: res.Series[:n], Iters: int(res.ISeries[0]), Residual: wire.Float64(res.Series[n])},
	}})
	f.Add(reply)
	nan, _ := json.Marshal(&Result{
		Series:  wire.Float64s{math.Float64frombits(0x7ff8000000000001), math.Inf(-1), math.Copysign(0, -1)},
		ISeries: wire.Int64s{math.MinInt64},
	})
	f.Add(nan)
	for _, s := range []string{
		`null`, `""`, `{}`, `{"series":null}`, `{"series":""}`,
		`{"series":"AAAAAAA="}`, `{"series":"AAAAAAAA8D8"}`, `{"iseries":"AQAAAAAAAAA"}`,
		`{"result":{"Nbody":{"PX":"AAAAAAAA+H8=","M":"AAAAAAAA8H8="}}}`,
		`{"result":{"Colloc":{"N":1,"Rows":"AAAAAAAAAAA=","Lens":"AQAAAAAAAAA=","Cols":"AAAAAAAAAAA=","Vals":"AAAAAAAA8D8="}}}`,
		`{"result":{"CG":{"Residual":"AAAAAAAA+P8="}}}`,
		`AAAAAAAA8D8=`, `AAAAAAAA8D9=`, `AAAAAAA=`,
	} {
		f.Add([]byte(s))
	}
	perObject := 8 * uint64(unsafe.Sizeof(core.NodeStats{}))
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, in []byte) {
		var text wire.Float64s
		var err error
		if alloc := allocated(func() { text = nil; err = text.UnmarshalText(in) }); alloc > uint64(len(in))+slack {
			t.Fatalf("a %d-byte payload string allocated %d bytes", len(in), alloc)
		}
		if err == nil {
			if again, _ := text.MarshalText(); !bytes.Equal(again, in) {
				t.Fatalf("payload %q decoded, but re-encodes to %q", in, again)
			}
		}
		bound := 8*uint64(len(in)) + perObject*uint64(bytes.Count(in, []byte("{"))) + slack
		var r Result
		if alloc := allocated(func() { r = Result{}; err = json.Unmarshal(in, &r) }); alloc > bound {
			t.Fatalf("a %d-byte Result allocated %d bytes (bound %d)", len(in), alloc, bound)
		}
		if err == nil {
			var back Result
			reencode(t, &r, &back)
			sameBits(t, "Result", &back, &r)
		}
		var rep dist.NodeReply
		if alloc := allocated(func() { rep = dist.NodeReply{}; err = json.Unmarshal(in, &rep) }); alloc > bound {
			t.Fatalf("a %d-byte NodeReply allocated %d bytes (bound %d)", len(in), alloc, bound)
		}
		if err == nil {
			var back dist.NodeReply
			reencode(t, &rep, &back)
			once, _ := json.Marshal(&back)
			twice, _ := json.Marshal(&rep)
			if !bytes.Equal(once, twice) {
				t.Fatalf("NodeReply changed in a JSON round trip:\n%s\n%s", twice, once)
			}
		}
	})
}

// reencode encodes v and decodes the bytes into back.
func reencode(t *testing.T, v, back any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("a decoded value does not encode: %v", err)
	}
	if err := json.Unmarshal(raw, back); err != nil {
		t.Fatalf("%s does not decode: %v", raw, err)
	}
}

// allocated is how many bytes the process allocated on the heap while fn
// ran: fn's allocations, and whatever the fuzzing engine allocated beside
// it, which the bounds' constant term absorbs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
