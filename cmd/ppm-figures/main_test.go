package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/nodes_1_2_4.golden from this run")

// The figure tables are the reproduction's output, and they are
// deterministic: a host-side change must leave every byte of them as it
// was. A change that means to move the model regenerates the golden with
// `go test ./cmd/ppm-figures -run TestFiguresGolden -update` and says so.
func TestFiguresGolden(t *testing.T) {
	const golden = "testdata/nodes_1_2_4.golden"
	var out bytes.Buffer
	if code := run([]string{"-nodes", "1,2,4", "-quiet"}, &out, io.Discard); code != 0 {
		t.Fatalf("ppm-figures exited %d", code)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("ppm-figures -nodes 1,2,4 differs from %s:\n%s", golden, out.Bytes())
	}
}
