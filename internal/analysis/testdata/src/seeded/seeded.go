// Package seeded plants one bug per ppmvet rule, each hidden one
// helper-call level below its use site. The corpus test asserts every
// rule reports on its SEED-marked line, pinning the interprocedural
// layer end to end. (Lines are marked `SEED:<rule>`; a marker sits on
// the line where the rule is expected to report, which is the phase-
// level call site for phaserace, which expands calls, and the call of
// the function whose error is dropped for runerror.)
package seeded

import "ppm"

// writeAt hides a shared write one level down; called with a constant
// index from a phase, phaserace reports at that call site.
func writeAt(vp *ppm.VP, g *ppm.Global[float64], i int) {
	g.Write(vp, i, 1.0)
}

// runModel forwards ppm.Run's error, so discarding runModel's own
// result discards a watched error.
func runModel(prog func(rt *ppm.Runtime)) error {
	_, err := ppm.Run(ppm.Options{}, prog)
	return err
}

func Host() {
	runModel(func(rt *ppm.Runtime) { // SEED:runerror
		g := ppm.AllocGlobal[float64](rt, "g", 64)
		rt.Do(4, func(vp *ppm.VP) {
			vp.GlobalPhase(func() {
				writeAt(vp, g, 7) // SEED:phaserace
			})
		})
	})
}
