package dist

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ppm/internal/apps/cg"
	"ppm/internal/apps/colloc"
	"ppm/internal/apps/jacobi"
	"ppm/internal/apps/nbody"
	"ppm/internal/apps/scatter"
	"ppm/internal/apps/search"
	"ppm/internal/core"
	"ppm/internal/machine"
)

// smallSpec is a quick workload for every application at once; the
// table tests below select one by name. An application registered
// without a block here runs on zero parameters and fails its own
// validation, which is the reminder to add one.
var smallSpec = AppSpec{
	CG:      cg.Params{NX: 6, NY: 6, NZ: 8, MaxIter: 4},
	Colloc:  colloc.Params{Levels: 3, M0: 6, Delta: 3},
	Nbody:   nbody.Params{N: 96, Steps: 1, Theta: 0.5, Eps: 0.05, DT: 0.01, Seed: 3},
	Jacobi:  jacobi.Params{NX: 6, NY: 6, NZ: 8, Sweeps: 3},
	Search:  search.Params{N: 4096, K: 64, Seed: 3},
	Scatter: scatter.Params{N: 300, VPs: 3, Iters: 2, Seed: 7},
}

// Every registered application's output survives the trip a mesh run
// gives it: cut into per-rank fragments, each through NodeResult's JSON,
// merged back. The fragments are taken from a simulator run, whose
// output is complete on every rank, so the merge must reproduce it
// exactly; a missing or mismatched hook shows up here, not in a served
// job.
func TestEveryAppFragmentsMergeBack(t *testing.T) {
	const nodes = 3
	opt := core.Options{Nodes: nodes, CoresPerNode: 2, Machine: machine.Franklin()}
	for _, a := range apps {
		t.Run(a.name, func(t *testing.T) {
			spec := smallSpec
			spec.App = a.name
			want, _, err := RunSim(opt, spec)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]NodeResult, nodes)
			for r := range results {
				res := NodeResult{Rank: r, Stats: want.PerNode[r]}
				a.fragment(spec, want, r, nodes, &res)
				data, err := json.Marshal(&res)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &results[r]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Merge(spec, results)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged fragments differ from the run's output:\n got %+v\nwant %+v", got, want)
			}
			if reflect.DeepEqual(got, &Merged{PerNode: got.PerNode, Totals: got.Totals}) {
				t.Error("merge produced no application output")
			}
			if a.runMPI != nil {
				mpi, rep, err := RunMPI(MPIOptions{Nodes: nodes, CoresPerNode: 2}, spec)
				if err != nil || rep == nil {
					t.Fatalf("RunMPI: %v (report %v)", err, rep)
				}
				if reflect.DeepEqual(mpi, &Merged{}) {
					t.Error("RunMPI produced no application output")
				}
			} else if _, _, err := RunMPI(MPIOptions{Nodes: nodes}, spec); err == nil {
				t.Error("RunMPI ran an application that has no message-passing variant")
			}
		})
	}
}

// An unknown name is refused by every entry point with the one message
// that lists the registered applications.
func TestUnknownAppListsRegistry(t *testing.T) {
	list := strings.Join(AppNames(), ", ")
	bogus := AppSpec{App: "bogus"}
	_, _, simErr := RunSim(core.Options{Nodes: 1}, bogus)
	_, _, mpiErr := RunMPI(MPIOptions{Nodes: 1}, bogus)
	_, mergeErr := Merge(bogus, nil)
	for name, err := range map[string]error{"RunSim": simErr, "RunMPI": mpiErr, "Merge": mergeErr, "CheckApp": CheckApp("bogus")} {
		if err == nil || !strings.Contains(err.Error(), list) {
			t.Errorf("%s: error %v does not list %q", name, err, list)
		}
	}
	for _, name := range AppNames() {
		if err := CheckApp(name); err != nil {
			t.Errorf("CheckApp(%q): %v", name, err)
		}
	}
}

// A colloc fragment's row lengths must add up to the columns and values
// it carries; a node reply that says otherwise does not decode.
func TestCollocFragRefusesInconsistentWords(t *testing.T) {
	one := `"AQAAAAAAAAA="` // the word 1
	for _, raw := range []string{
		`{"N":2,"Rows":` + one + `,"Lens":"","Cols":` + one + `,"Vals":` + one + `}`,
		`{"N":2,"Rows":` + one + `,"Lens":` + one + `,"Cols":` + one + `,"Vals":""}`,
		`{"N":2,"Rows":` + one + `,"Lens":"AgAAAAAAAAA=","Cols":` + one + `,"Vals":` + one + `}`,
		`{"N":2,"Rows":` + one + `,"Lens":"//////////8=","Cols":` + one + `,"Vals":` + one + `}`,
		`{"N":2,"Rows":"","Lens":"","Cols":` + one + `,"Vals":` + one + `}`,
	} {
		var f CollocFrag
		if err := json.Unmarshal([]byte(raw), &f); err == nil || !strings.Contains(err.Error(), "colloc fragment") {
			t.Errorf("%s: decoded to %+v, %v; want a colloc fragment error", raw, f, err)
		}
	}
}
