package jobspec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// workRatio is a spec's simulator cost over its application's default's,
// by what that cost grows with. Search's array length counts for half: it
// is a fill, where each key is a probe across the nodes.
var workRatio = map[string]func(s, d *Spec) float64{
	"cg": func(s, d *Spec) float64 {
		return ratio(s.CG.NX*s.CG.NY*s.CG.NZ*s.CG.MaxIter, d.CG.NX*d.CG.NY*d.CG.NZ*d.CG.MaxIter)
	},
	"jacobi": func(s, d *Spec) float64 {
		return ratio(s.Jacobi.NX*s.Jacobi.NY*s.Jacobi.NZ*s.Jacobi.Sweeps, d.Jacobi.NX*d.Jacobi.NY*d.Jacobi.NZ*d.Jacobi.Sweeps)
	},
	"colloc": func(s, d *Spec) float64 {
		return ratio(s.Colloc.M0<<s.Colloc.Levels, d.Colloc.M0<<d.Colloc.Levels) * s.Colloc.Delta / d.Colloc.Delta
	},
	"nbody": func(s, d *Spec) float64 {
		open := d.Nbody.Theta / s.Nbody.Theta // a smaller opening angle walks deeper
		return ratio(s.Nbody.N*max(s.Nbody.Steps, 1), d.Nbody.N*d.Nbody.Steps) * open * open
	},
	"search": func(s, d *Spec) float64 {
		return max(ratio(s.Search.N, 2*d.Search.N), ratio(s.Search.K, d.Search.K))
	},
	"scatter": func(s, d *Spec) float64 {
		return ratio(s.Scatter.N*s.Scatter.VPs*s.Scatter.Iters, d.Scatter.N*d.Scatter.VPs*d.Scatter.Iters)
	},
}

func ratio(a, b int) float64 { return float64(a) / float64(b) }

// withinWorkCap keeps a fuzz input well under a second of simulator time:
// at most 16 cores in all, and at most twice the application's default
// work (so search's array may reach four times its default length).
func withinWorkCap(s *Spec) bool {
	if s.Nodes*s.Cores > 16 {
		return false
	}
	d := (&Spec{App: s.App}).Normalize()
	w := workRatio[s.App](s, d)
	return !math.IsNaN(w) && w <= 2
}

// FuzzRunLocal holds RunLocal to its contract: a spec that Validate
// accepts ends in a result or an error, never a panic. Specs past the work
// cap are skipped, not run. The seeds are the example jobs and the shapes
// at the edges of the array storage pool: arrays shorter than the node
// count (empty partitions, which draw nothing), one VP per node, and a
// search array of 32 MiB, above the pool's largest class, which is
// allocated outright and left to the collector at the end of the run.
func FuzzRunLocal(f *testing.F) {
	examples, err := filepath.Glob("../../examples/jobs/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example jobs to seed from (%v)", err)
	}
	for _, path := range examples {
		spec, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec)
	}
	for _, spec := range []string{
		`{"app":"scatter","nodes":8,"cores":2,"scatter":{"N":3,"VPs":1,"Iters":2}}`,
		`{"app":"scatter","backend":"parallel","nodes":16,"cores":1,"scatter":{"N":5,"VPs":1,"Iters":1}}`,
		`{"app":"jacobi","nodes":4,"cores":1,"jacobi":{"NX":3,"NY":2,"NZ":2,"Sweeps":1}}`,
		`{"app":"search","nodes":2,"cores":1,"search":{"N":4194304,"K":1}}`,
		`{"app":"cg","nodes":2,"cores":1,"cg":{"NX":2,"NY":2,"NZ":2,"MaxIter":1}}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		s.Normalize()
		if s.Validate() != nil || !withinWorkCap(&s) {
			return
		}
		if res, err := RunLocal(&s); res == nil && err == nil {
			t.Fatalf("RunLocal(%s) returned neither a result nor an error", raw)
		}
	})
}
