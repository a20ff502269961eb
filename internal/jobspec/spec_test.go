package jobspec

import (
	"encoding/json"
	"math"
	"testing"
)

func mustUnmarshal(t *testing.T, raw string, s *Spec) {
	t.Helper()
	if err := json.Unmarshal([]byte(raw), s); err != nil {
		t.Fatal(err)
	}
}

// mustSpec parses, normalizes and validates a JSON spec.
func mustSpec(t *testing.T, raw string) *Spec {
	t.Helper()
	var s Spec
	mustUnmarshal(t, raw, &s)
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return &s
}

// The hash must not depend on JSON surface form: field order, absent
// fields that normalize to defaults, or explicit defaults all encode to
// the same canonical bytes.
func TestHashCanonicalization(t *testing.T) {
	base := mustSpec(t, `{"app":"cg","backend":"sim","nodes":2,"cores":4,
		"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`)
	same := []string{
		// Reordered fields.
		`{"cg":{"MaxIter":6,"NZ":8,"NY":8,"NX":8},"cores":4,"nodes":2,"backend":"sim","app":"cg"}`,
		// Defaults made explicit vs left absent.
		`{"app":"cg","backend":"sim","nodes":2,"cores":4,"preset":"franklin",
		  "cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6,"Tol":0}}`,
		// Absent backend/nodes/cores normalize to sim/2/4.
		`{"app":"cg","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
	}
	for i, raw := range same {
		if got := mustSpec(t, raw).Hash(); got != base.Hash() {
			t.Errorf("variant %d: hash %s, want %s", i, got, base.Hash())
		}
	}
}

// DeadlineMS is an execution constraint, not part of the computation:
// it must not perturb the content address.
func TestHashExcludesDeadline(t *testing.T) {
	a := mustSpec(t, `{"app":"jacobi"}`)
	b := mustSpec(t, `{"app":"jacobi","deadline_ms":5000}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("deadline changed the hash: %s vs %s", a.Hash(), b.Hash())
	}
}

// Everything that can change the result must change the hash.
func TestHashSensitivity(t *testing.T) {
	base := mustSpec(t, `{"app":"cg","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`)
	seen := map[string]string{"base": base.Hash()}
	variants := map[string]string{
		"app":      `{"app":"jacobi"}`,
		"backend":  `{"app":"cg","backend":"parallel","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		"nodes":    `{"app":"cg","nodes":3,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		"cores":    `{"app":"cg","cores":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		"preset":   `{"app":"cg","preset":"generic","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
		"param":    `{"app":"cg","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":7}}`,
		"ablation": `{"app":"cg","no_readcache":true,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`,
	}
	for name, raw := range variants {
		h := mustSpec(t, raw).Hash()
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("variant %q collides with %q", name, prev)
			}
		}
		seen[name] = h
	}
}

// A normalized spec round-trips through JSON with its hash intact (the
// server hashes what it received; nodes re-derive it after transport).
func TestHashJSONRoundTrip(t *testing.T) {
	s := mustSpec(t, `{"app":"scatter","backend":"dist","nodes":2,
		"scatter":{"N":500,"VPs":4,"Iters":3,"Seed":7}}`)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.Normalize()
	if back.Hash() != s.Hash() {
		t.Fatalf("round trip changed hash: %s vs %s", back.Hash(), s.Hash())
	}
}

// RunLocal on sim and parallel backends must agree bit-for-bit — the
// flattened Series is the equivalence surface every serving path is
// judged against.
func TestRunLocalParallelBitIdentical(t *testing.T) {
	sim := mustSpec(t, `{"app":"cg","backend":"sim","nodes":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`)
	par := mustSpec(t, `{"app":"cg","backend":"parallel","nodes":2,"cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`)
	a, err := RunLocal(sim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLocal(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) || len(a.Series) == 0 {
		t.Fatalf("series lengths: sim %d, parallel %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if math.Float64bits(a.Series[i]) != math.Float64bits(b.Series[i]) {
			t.Fatalf("series[%d]: sim %v, parallel %v", i, a.Series[i], b.Series[i])
		}
	}
}
