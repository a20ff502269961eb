package main

import (
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/jobspec"
)

// A run through the tracing wrapper must be the run through the bare
// engine: same output bits, same program counters. cg drives the fetch
// path, the two owned programs the commit path, and every job is also
// checked against the simulator.
func TestTracedEngineIsTransparent(t *testing.T) {
	jobs := []*job{
		specJob("cg", &jobspec.Spec{
			App: "cg", Backend: jobspec.BackendDist, Nodes: 2, Cores: 2,
			CG: &cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6},
		}),
		progJob("add-sparse", addSparse, 2, 2, 3),
		progJob("write-dense", writeDense, 2, 2, 3),
	}
	if err := makeReferences(jobs); err != nil {
		t.Fatal(err)
	}
	m, err := connectMesh(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	tr := newTracer()
	for _, j := range jobs {
		bare, _, err := m.run(j, traceCtx{})
		if err != nil {
			t.Fatalf("%s on the bare engines: %v", j.name, err)
		}
		traced, _, err := m.run(j, traceCtx{tr: tr, parent: -1, capture: captureLimit})
		if err != nil {
			t.Fatalf("%s through the wrapper: %v", j.name, err)
		}
		if err := j.check(bare); err != nil {
			t.Errorf("bare engines against the simulator: %v", err)
		}
		// check compares against j.ref; make the bare run the reference.
		j.ref.outcome = bare
		if err := j.check(traced); err != nil {
			t.Errorf("wrapper against the bare engines: %v", err)
		}
	}

	m2 := metrics{}
	spanMetrics(tr, 1, m2)
	for _, name := range []string{"dist.fetch_calls", "dist.commit_calls", "dist.recv_calls", "dist.read_serve_calls", "core.self_ms"} {
		if m2[name] <= 0 {
			t.Errorf("%s = %v after three traced jobs, want > 0", name, m2[name])
		}
	}
	var streams [][]byte
	for _, te := range m.traced {
		streams = append(streams, te.captured...)
	}
	if err := probeWire(streams, m2); err != nil {
		t.Fatalf("wire probe on the captured streams: %v", err)
	}
	if m2["wire.delta_ratio"] <= 1 {
		t.Errorf("wire.delta_ratio = %v on sparse+dense streams, want > 1", m2["wire.delta_ratio"])
	}
}
