package dist

import (
	"fmt"
	"math"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/search"
	"ppm/internal/core"
)

// runMesh runs one process-worth of work per goroutine over a real
// loopback TCP mesh — the full engine stack (framing, bundling writer,
// read server, commit plane) inside one test process, so the race
// detector sees all of it at once.
func runMesh(t *testing.T, nodes int, body func(rank int, eng *Engine) error) {
	t.Helper()
	runMeshWith(t, nodes, nil, body)
}

// runMeshWith is runMesh with a per-rank Config hook (wire codec,
// timeouts — the rank is already filled in);
// unlike runMeshCfg (fault_test.go) every rank error fails the test.
func runMeshWith(t *testing.T, nodes int, mod func(rank int, cfg *Config), body func(rank int, eng *Engine) error) {
	t.Helper()
	for r, err := range runMeshCfg(t, nodes, mod, body) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// runAppMesh runs spec on a loopback mesh and merges the fragments.
func runAppMesh(t *testing.T, nodes int, opt core.Options, spec AppSpec) *Merged {
	t.Helper()
	results := make([]NodeResult, nodes)
	runMesh(t, nodes, func(rank int, eng *Engine) error {
		results[rank] = *RunApp(eng, opt, spec)
		return nil
	})
	m, err := Merge(spec, results)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// stripTimes keeps what the program computed (NodeStats.Program) less
// virtual time, which a real run does not model. Everything else must
// match exactly.
func stripTimes(s core.NodeStats) core.NodeStats {
	s = s.Program()
	s.PhaseComputeTime, s.PhaseCommTime, s.PhaseApplyTime = 0, 0, 0
	return s
}

func samePerNode(t *testing.T, got, want []core.NodeStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("per-node stats: %d nodes, want %d", len(got), len(want))
	}
	for n := range want {
		g, w := stripTimes(got[n]), stripTimes(want[n])
		if g != w {
			t.Errorf("node %d counters diverge:\n dist %+v\n  sim %+v", n, g, w)
		}
	}
}

func distOpt(nodes int) core.Options {
	return core.Options{Nodes: nodes, CoresPerNode: 2}
}

func TestDistCGMatchesSimulator(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			opt := distOpt(nodes)
			prm := cg.Params{NX: 8, NY: 8, NZ: 8, MaxIter: 6}
			want, wrep, err := cg.RunPPM(opt, prm)
			if err != nil {
				t.Fatal(err)
			}
			m := runAppMesh(t, nodes, opt, AppSpec{App: "cg", CG: prm})
			if m.CG.Iters != want.Iters {
				t.Fatalf("iters = %d, want %d", m.CG.Iters, want.Iters)
			}
			if math.Float64bits(m.CG.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("residual = %v, want %v", m.CG.Residual, want.Residual)
			}
			sameF64(t, "x", m.CG.X, want.X)
			samePerNode(t, m.PerNode, wrep.PerNode)
		})
	}
}

func TestDistJacobiMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := jacobi.Params{NX: 10, NY: 6, NZ: 4, Sweeps: 5}
	want, wrep, err := jacobi.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 2, opt, AppSpec{App: "jacobi", Jacobi: prm})
	sameF64(t, "u", m.Jacobi, want)
	samePerNode(t, m.PerNode, wrep.PerNode)
}

func TestDistCollocMatchesSimulator(t *testing.T) {
	opt := distOpt(3)
	prm := colloc.Params{Levels: 4, M0: 6, Delta: 2.5}
	want, wrep, err := colloc.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 3, opt, AppSpec{App: "colloc", Colloc: prm})
	if m.Colloc.N != want.N {
		t.Fatalf("N = %d, want %d", m.Colloc.N, want.N)
	}
	for i := range want.Rows {
		if len(m.Colloc.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d: %d entries, want %d", i, len(m.Colloc.Rows[i]), len(want.Rows[i]))
		}
		for j, e := range want.Rows[i] {
			g := m.Colloc.Rows[i][j]
			if g.Col != e.Col || math.Float64bits(g.Val) != math.Float64bits(e.Val) {
				t.Fatalf("entry (%d,%d) = (%d,%v), want (%d,%v)", i, j, g.Col, g.Val, e.Col, e.Val)
			}
		}
	}
	samePerNode(t, m.PerNode, wrep.PerNode)
}

func TestDistNbodyMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := nbody.Params{N: 64, Steps: 2, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 7}
	want, wrep, err := nbody.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 2, opt, AppSpec{App: "nbody", Nbody: prm})
	sameF64(t, "px", m.Nbody.PX, want.PX)
	sameF64(t, "py", m.Nbody.PY, want.PY)
	sameF64(t, "pz", m.Nbody.PZ, want.PZ)
	sameF64(t, "vx", m.Nbody.VX, want.VX)
	sameF64(t, "vy", m.Nbody.VY, want.VY)
	sameF64(t, "vz", m.Nbody.VZ, want.VZ)
	sameF64(t, "m", m.Nbody.M, want.M)
	samePerNode(t, m.PerNode, wrep.PerNode)
}

func TestDistSearchMatchesSimulator(t *testing.T) {
	opt := distOpt(2)
	prm := search.Params{N: 4096, K: 64, Seed: 7}
	want, wrep, err := search.RunPPM(opt, prm)
	if err != nil {
		t.Fatal(err)
	}
	m := runAppMesh(t, 2, opt, AppSpec{App: "search", Search: prm})
	for n := range want {
		if len(m.Search[n]) != len(want[n]) {
			t.Fatalf("node %d: %d ranks, want %d", n, len(m.Search[n]), len(want[n]))
		}
		for i := range want[n] {
			if m.Search[n][i] != want[n][i] {
				t.Fatalf("node %d rank[%d] = %d, want %d", n, i, m.Search[n][i], want[n][i])
			}
		}
	}
	samePerNode(t, m.PerNode, wrep.PerNode)
}

// TestDistAblationCounters checks the modeled bundling counters stay
// bit-identical to the simulator under the ablation flags too.
func TestDistAblationCounters(t *testing.T) {
	prm := cg.Params{NX: 6, NY: 6, NZ: 6, MaxIter: 3}
	for _, tc := range []struct {
		name string
		mod  func(*core.Options)
	}{
		{"no-bundling", func(o *core.Options) { o.NoBundling = true }},
		{"small-bundles", func(o *core.Options) { o.BundleBytes = 256 }},
		{"no-readcache", func(o *core.Options) { o.NoReadCache = true }},
		{"static", func(o *core.Options) { o.StaticSchedule = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := distOpt(2)
			tc.mod(&opt)
			_, wrep, err := cg.RunPPM(opt, prm)
			if err != nil {
				t.Fatal(err)
			}
			m := runAppMesh(t, 2, opt, AppSpec{App: "cg", CG: prm})
			samePerNode(t, m.PerNode, wrep.PerNode)
		})
	}
}

// TestDistEndpointMessaging drives the raw mp surface over the mesh:
// typed payloads, wildcard receives, and a token (nil-payload) barrier.
func TestDistEndpointMessaging(t *testing.T) {
	runMesh(t, 3, func(rank int, eng *Engine) error {
		if rank != 0 {
			eng.Send(0, 100+rank, []float64{float64(rank), 0.5}, 16)
		} else {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := eng.Recv(-1, -1) // AnySource, AnyTag
				if m.Tag != 100+m.Src {
					return fmt.Errorf("tag %d from src %d", m.Tag, m.Src)
				}
				if m.Bytes != 16 {
					return fmt.Errorf("payload %d bytes, want 16", m.Bytes)
				}
				seen[m.Src] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("missing senders: %v", seen)
			}
		}
		return nil
	})
}

func TestDistAbortPropagates(t *testing.T) {
	runMesh(t, 2, func(rank int, eng *Engine) error {
		if rank == 0 {
			eng.Abort(fmt.Errorf("synthetic failure"))
			return nil
		}
		// Rank 1 blocks on a message that never comes; the abort must
		// wake it with an error rather than hang.
		res := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if ae, ok := r.(core.AbortError); ok {
						err = ae.Err
					} else {
						err = fmt.Errorf("unexpected panic: %v", r)
					}
				}
			}()
			eng.Recv(0, 42)
			return fmt.Errorf("recv returned without a message")
		}()
		if res == nil {
			return fmt.Errorf("expected abort error")
		}
		return nil
	})
}
