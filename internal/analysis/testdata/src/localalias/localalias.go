// Fixture for the localalias rule: Local slices retained into VP code.
package localalias

import "ppm"

// shared is a base-image slice retained at package level.
var shared []float64

func Program(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 64)
	b := ppm.AllocNode[float64](rt, "b", 8)

	local := a.Local(rt) // ok here: node-level initialization...
	for i := range local {
		local[i] = float64(i) // ok: outside Do
	}
	shared = b.Local(rt)
	third := a.At(rt, 3) // a copy of one element, not an alias

	rt.Do(4, func(vp *ppm.VP) {
		_ = local[0] // want `bypass phase semantics`
		_ = third    // ok: At returned a value
		vp.GlobalPhase(func() {
			local[1] = 2.0 // want `bypass phase semantics`
		})
		// Local and At called here panic at run time (rt.inDo); the
		// runtime decides that case, so the rule leaves it alone.
		_ = a.Local(rt)
	})

	// After the Do the alias is safe again.
	_ = local[0] // ok
	_ = b.Local(rt)[0]
}

// peek is VP code by signature: the retained slice is reported in the
// helper, where it is used.
func peek(vp *ppm.VP) float64 {
	return shared[0] // want `shared aliases the base image`
}
