package jobspec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
