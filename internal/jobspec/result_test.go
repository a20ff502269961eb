package jobspec

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateResult = flag.Bool("update", false, "rewrite testdata/cg-3x3x3.result.json from this run")

// sameBits fails unless got and want hold the same float64 words and the
// same integers.
func sameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Series) != len(want.Series) || len(got.ISeries) != len(want.ISeries) {
		t.Fatalf("%s: %d values and %d integers, want %d and %d",
			label, len(got.Series), len(got.ISeries), len(want.Series), len(want.ISeries))
	}
	for i := range want.Series {
		if g, w := math.Float64bits(got.Series[i]), math.Float64bits(want.Series[i]); g != w {
			t.Fatalf("%s: series[%d] = %#016x, want %#016x", label, i, g, w)
		}
	}
	for i := range want.ISeries {
		if got.ISeries[i] != want.ISeries[i] {
			t.Fatalf("%s: iseries[%d] = %d, want %d", label, i, got.ISeries[i], want.ISeries[i])
		}
	}
}

// jsonRoundTrip encodes r and decodes the bytes into a fresh Result.
func jsonRoundTrip(t *testing.T, r *Result) *Result {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encoding the result: %v", err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("decoding %.200s: %v", raw, err)
	}
	return &back
}

// A Result crosses JSON with every bit of its payload: NaNs keep their
// payloads and signs, and the infinities, -0 and the int64 extremes
// survive.
func TestResultJSONBitExact(t *testing.T) {
	r := &Result{Hash: "h", App: "cg", Backend: BackendSim}
	for _, b := range []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8deadbeef0042, 0x7ff0000000000001,
		0x7ff0000000000000, 0xfff0000000000000, 0x8000000000000000, 0x0000000000000001,
	} {
		r.Series = append(r.Series, math.Float64frombits(b))
	}
	r.ISeries = append(r.ISeries, math.MinInt64, -1, 0, math.MaxInt64)
	sameBits(t, "round trip", jsonRoundTrip(t, r), r)
}

// nonFiniteSpec is examples/jobs/nbody-nonfinite.json: a spec Validate
// accepts whose time step overflows the particle state to NaN and ±Inf.
func nonFiniteSpec(t *testing.T) *Spec {
	t.Helper()
	raw, err := os.ReadFile("../../examples/jobs/nbody-nonfinite.json")
	if err != nil {
		t.Fatal(err)
	}
	return mustSpec(t, string(raw))
}

func TestRunLocalNonFinite(t *testing.T) {
	res, err := RunLocal(nonFiniteSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	nonFinite := 0
	for _, v := range res.Series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatalf("none of the %d outputs is NaN or infinite; the spec no longer tests what it names", len(res.Series))
	}
	t.Logf("%d of %d outputs are NaN or infinite", nonFinite, len(res.Series))
	sameBits(t, "round trip", jsonRoundTrip(t, res), res)
}

// The API form of a Result is pinned: these are the bytes of a small cg
// job's result, whose series travel as base64 of little-endian words.
// A mismatch means every client of the HTTP API sees a new format.
func TestResultJSONGolden(t *testing.T) {
	res, err := RunLocal(mustSpec(t, `{"app":"cg","nodes":2,"cores":1,"cg":{"NX":3,"NY":3,"NZ":3,"MaxIter":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "cg-3x3x3.result.json")
	if *updateResult {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result JSON differs from %s (rerun with -update only for a deliberate format change):\n%s", path, got)
	}
}
