package jobspec

import "testing"

// The canonical encoding keys the server's result cache and the fleets'
// warm sessions, so its bytes are pinned: these are the hashes the tree
// produced before the per-app encodings moved into the registry.
func TestHashGolden(t *testing.T) {
	golden := map[string]string{
		`{"app":"cg"}`:      "389c95877ccba075ace67681290a5b499428454c80948c1baf84d2882b7061c5",
		`{"app":"colloc"}`:  "a885d9087eb0c3adeac1881918c63b96f587da7fe62f1a04790b02d96eb806e6",
		`{"app":"nbody"}`:   "01cfdc3ef370701854835b22e4632f7fb7c1e7dc4c726d6bf8b9bfd3ad76183c",
		`{"app":"jacobi"}`:  "e1be05028ef8c3e76eb9084905db021c06bc3e5ab3b0b6d89e65745827ac4330",
		`{"app":"search"}`:  "00e946fa8354e4ce4efb60874619ec9f2af3ea8877f71dc9354c7bcbb0a9aadc",
		`{"app":"scatter"}`: "d5c43be35ed42fabd728b73313d3dea89fc4a1ea856396e394336a9f0f5268eb",
		`{"app":"nbody","backend":"dist","nodes":3,"cores":2,"preset":"generic",
		  "no_overlap":true,"static":true,
		  "nbody":{"N":64,"Steps":1,"Theta":0.25,"Eps":0.01,"DT":0.5,"Seed":9}}`: "fdd60813be410fe1202a136dc7baad072477506b44c97000d7163f5fe01d6ce6",
	}
	for raw, want := range golden {
		if got := mustSpec(t, raw).Hash(); got != want {
			t.Errorf("%s: hash %s, want %s", raw, got, want)
		}
	}
}
