package jobspec

import (
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ppm/internal/dist"
)

// small is a quick parameter block for every registered application;
// TestEveryAppRunsEverywhere fails for one registered without it.
var small = map[string]string{
	"cg":      `"cg":{"NX":6,"NY":6,"NZ":8,"MaxIter":4}`,
	"colloc":  `"colloc":{"Levels":3,"M0":6}`,
	"nbody":   `"nbody":{"N":96,"Steps":1,"Seed":3}`,
	"jacobi":  `"jacobi":{"NX":6,"NY":6,"NZ":8,"Sweeps":3}`,
	"search":  `"search":{"N":4096,"K":64,"Seed":3}`,
	"scatter": `"scatter":{"N":300,"VPs":3,"Iters":2}`,
}

// The two halves of the registry describe the same applications, and an
// unknown name is refused with the list generated from it.
func TestRegistryHalvesAgree(t *testing.T) {
	var here []string
	for name := range apps {
		here = append(here, name)
	}
	there := dist.AppNames()
	sort.Strings(here)
	sort.Strings(there)
	if !reflect.DeepEqual(here, there) {
		t.Fatalf("jobspec registers %v, dist registers %v", here, there)
	}
	list := strings.Join(dist.AppNames(), ", ")
	bogus := (&Spec{App: "bogus"}).Normalize()
	_, flattenErr := FromMerged(bogus, &dist.Merged{})
	for name, err := range map[string]error{"Validate": bogus.Validate(), "FromMerged": flattenErr} {
		if err == nil || !strings.Contains(err.Error(), list) {
			t.Errorf("%s: error %v does not list %q", name, err, list)
		}
	}
}

// Every registered application: normalizes, validates, hashes, runs on
// the sim and parallel backends to Float64bits-equal output, and
// summarizes itself. (Its trip through NodeResult fragments and
// dist.Merge is dist's TestEveryAppFragmentsMergeBack.)
func TestEveryAppRunsEverywhere(t *testing.T) {
	hashes := map[string]string{}
	for _, name := range dist.AppNames() {
		t.Run(name, func(t *testing.T) {
			block, ok := small[name]
			if !ok {
				t.Fatalf("no small parameter block for %q in this test", name)
			}
			run := func(backend string) *Result {
				s := mustSpec(t, fmt.Sprintf(`{"app":%q,"backend":%q,"nodes":3,"cores":2,%s}`, name, backend, block))
				if prev, dup := hashes[s.Hash()]; dup {
					t.Errorf("hash of %s/%s collides with %s", name, backend, prev)
				}
				hashes[s.Hash()] = name + "/" + backend
				res, err := RunLocal(s)
				if err != nil {
					t.Fatal(err)
				}
				if res.Hash != s.Hash() || res.App != name || res.Backend != backend {
					t.Errorf("result labelled %s/%s/%s", res.App, res.Backend, res.Hash)
				}
				return res
			}
			sim, par := run(BackendSim), run(BackendParallel)
			if len(sim.Series)+len(sim.ISeries) == 0 {
				t.Fatal("empty output")
			}
			if !strings.HasPrefix(sim.Summary, name+": ") || sim.Summary != par.Summary {
				t.Errorf("summaries %q / %q", sim.Summary, par.Summary)
			}
			if len(sim.Series) != len(par.Series) || !reflect.DeepEqual(sim.ISeries, par.ISeries) {
				t.Fatalf("sim and parallel outputs differ in shape or integers")
			}
			for i := range sim.Series {
				if math.Float64bits(sim.Series[i]) != math.Float64bits(par.Series[i]) {
					t.Fatalf("series[%d]: sim %v, parallel %v", i, sim.Series[i], par.Series[i])
				}
			}
			if !reflect.DeepEqual(sim.Totals, par.Totals) {
				t.Errorf("totals differ: sim %+v, parallel %+v", sim.Totals, par.Totals)
			}
		})
	}
}

// Spec's doc comment claims a submitted spec and the equivalent command
// line describe the same job. For defaults that is now by construction:
// the flags of an empty command line give Normalize of {"app": X}.
func TestFlagsDefaultToNormalize(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	pick := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range dist.AppNames() {
		got, want := pick(name).Normalize(), (&Spec{App: name}).Normalize()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flags give %+v, Normalize gives %+v", name, got, want)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%s: hashes differ", name)
		}
	}
}

// Flags set on the command line land in the picked spec, a zero means
// the default, and a flag can be refused at parse time.
func TestFlagsFillThePickedSpec(t *testing.T) {
	parse := func(args ...string) (func(string) *Spec, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		pick := Flags(fs)
		return pick, fs.Parse(args)
	}
	pick, err := parse("-cg-grid", "8x8x8", "-cg-iters", "6", "-jacobi-sweeps", "0", "-scatter-seed", "11", "-bh-n", "64")
	if err != nil {
		t.Fatal(err)
	}
	if s := pick("cg").Normalize(); s.Hash() != mustSpec(t, `{"app":"cg","cg":{"NX":8,"NY":8,"NZ":8,"MaxIter":6}}`).Hash() {
		t.Errorf("cg flags gave %+v", s.CG)
	}
	if s := pick("jacobi").Normalize(); s.Jacobi.Sweeps != 10 {
		t.Errorf("-jacobi-sweeps 0 gave %d sweeps, want the default 10", s.Jacobi.Sweeps)
	}
	if s := pick("scatter").Normalize(); s.Scatter.Seed != 11 || s.Scatter.N != 3000 {
		t.Errorf("scatter flags gave %+v", s.Scatter)
	}
	if s := pick("nbody").Normalize(); s.Nbody.N != 64 || s.Nbody.Theta != 0.5 || s.CG != nil {
		t.Errorf("nbody flags gave %+v (cg block %v)", s.Nbody, s.CG)
	}
	if err := pick("bogus").Normalize().Validate(); err == nil {
		t.Error("an unknown -app validated")
	}
	for _, bad := range [][]string{
		{"-cg-grid", "8x8x8junk"}, {"-jacobi-grid", "10x6x4.5"}, {"-cg-grid", "0x0x0"}, {"-jacobi-grid", "-4x4x4"},
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v parsed", bad)
		}
	}
}

// A parameter block the application would refuse is refused by Validate,
// with the application's own message: the submission never reaches a
// queue, and a serve-mode node answers without touching its engine.
func TestValidateChecksParameters(t *testing.T) {
	for raw, want := range badParamBlocks {
		var s Spec
		mustUnmarshal(t, raw, &s)
		err := s.Normalize().Validate()
		if err == nil || err.Error() != want {
			t.Errorf("%s: Validate() = %v, want %q", raw, err, want)
		}
		if s.Backend != BackendDist {
			if _, runErr := RunLocal(&s); runErr == nil || runErr.Error() != want {
				t.Errorf("%s: RunLocal() = %v, want %q", raw, runErr, want)
			}
		}
	}
}

// badParamBlocks are specs whose parameter block the application
// refuses, with its message, and specs whose cluster shape Validate
// refuses, with its own.
var badParamBlocks = map[string]string{
	`{"app":"nbody","nbody":{"N":-5}}`:                                   "nbody: N must be positive, got -5",
	`{"app":"nbody","nbody":{"Steps":-1}}`:                               "nbody: Steps must be non-negative, got -1",
	`{"app":"nbody","nbody":{"Theta":-0.5}}`:                             "nbody: Theta must be non-negative, got -0.5",
	`{"app":"nbody","nbody":{"Eps":-1}}`:                                 "nbody: Eps must be positive, got -1",
	`{"app":"nbody","nbody":{"DT":-0.01}}`:                               "nbody: DT must be positive, got -0.01",
	`{"app":"cg","cg":{"MaxIter":-3}}`:                                   "cg: MaxIter must be positive, got -3",
	`{"app":"cg","cg":{"NX":-4,"NY":4,"NZ":4}}`:                          "cg: grid -4x4x4 invalid",
	`{"app":"cg","cg":{"NX":4}}`:                                         "cg: grid 4x0x0 invalid",
	`{"app":"cg","cg":{"NX":4194304,"NY":4194304,"NZ":4194304}}`:         "cg: grid 4194304x4194304x4194304 exceeds 16777216 points",
	`{"app":"cg","cg":{"NX":2097152,"NY":2097152,"NZ":3}}`:               "cg: grid 2097152x2097152x3 exceeds 16777216 points",
	`{"app":"colloc","colloc":{"Levels":-1}}`:                            "colloc: Levels must be in [1,24], got -1",
	`{"app":"colloc","colloc":{"Levels":25}}`:                            "colloc: Levels must be in [1,24], got 25",
	`{"app":"colloc","colloc":{"M0":-2}}`:                                "colloc: M0 must be positive, got -2",
	`{"app":"colloc","colloc":{"Delta":-1}}`:                             "colloc: Delta must be positive, got -1",
	`{"app":"jacobi","jacobi":{"Sweeps":-1}}`:                            "jacobi: Sweeps must be non-negative, got -1",
	`{"app":"jacobi","jacobi":{"NX":8,"NY":8,"NZ":-8}}`:                  "jacobi: grid 8x8x-8 invalid",
	`{"app":"jacobi","jacobi":{"NX":4194304,"NY":4194304,"NZ":4194304}}`: "jacobi: grid 4194304x4194304x4194304 exceeds 16777216 points",
	`{"app":"jacobi","jacobi":{"NX":2097152,"NY":2097152,"NZ":3}}`:       "jacobi: grid 2097152x2097152x3 exceeds 16777216 points",
	`{"app":"search","search":{"N":-1}}`:                                 "search: N and K must be positive, got -1, 16384",
	`{"app":"search","search":{"K":-7}}`:                                 "search: N and K must be positive, got 1048576, -7",
	`{"app":"scatter","scatter":{"VPs":-1}}`:                             "scatter: N, VPs, and Iters must be positive, got 3000, -1, 4",
	`{"app":"scatter","scatter":{"N":-1}}`:                               "scatter: N, VPs, and Iters must be positive, got -1, 6, 4",
	`{"app":"scatter","backend":"dist","scatter":{"Iters":-2}}`:          "scatter: N, VPs, and Iters must be positive, got 3000, 6, -2",
	// Sizes no process could hold: each application bounds its own.
	`{"app":"search","search":{"N":4611686018427387904}}`:         "search: N and K must be at most 16777216 and 1048576, got 4611686018427387904, 16384",
	`{"app":"search","search":{"K":4611686018427387904}}`:         "search: N and K must be at most 16777216 and 1048576, got 1048576, 4611686018427387904",
	`{"app":"scatter","scatter":{"N":100000000,"VPs":100000000}}`: "scatter: VPs x (N+1) must be at most 16777216, got 100000000 x 100000001",
	`{"app":"nbody","nbody":{"N":4611686018427387904}}`:           "nbody: N must be at most 1048576, got 4611686018427387904",
	`{"app":"colloc","colloc":{"Levels":24,"M0":1000000}}`:        "colloc: M0 x (2^Levels - 1) must be at most 1048576 basis functions, got 1000000 x 16777215",
	// The cluster shape is bounded before any application sees it.
	`{"app":"scatter","nodes":268435456}`:            "jobspec: nodes must be in [1,256], got 268435456",
	`{"app":"scatter","cores":1073741824}`:           "jobspec: cores must be in [1,256], got 1073741824",
	`{"app":"scatter","backend":"dist","nodes":257}`: "jobspec: nodes must be in [1,256], got 257",
	`{"app":"jacobi","nodes":-3}`:                    "jobspec: nodes must be in [1,256], got -3",
}

// The result cache must not serve one truncation radius for another:
// colloc's Delta used to be hashed as its integer part.
func TestHashSeesFractionalDelta(t *testing.T) {
	a := mustSpec(t, `{"app":"colloc","colloc":{"Delta":3}}`)
	b := mustSpec(t, `{"app":"colloc","colloc":{"Delta":3.5}}`)
	if a.Hash() == b.Hash() {
		t.Fatal("Delta 3 and 3.5 hash equal")
	}
}
